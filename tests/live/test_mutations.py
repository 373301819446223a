"""Wire codec and all-or-nothing batch validation of typed mutations."""

import pytest

from repro.errors import MutationError
from repro.live import (
    MUTATION_KINDS,
    add_social_edge,
    move_user,
    mutation_from_wire,
    mutation_to_wire,
    normalize_batch,
    remove_social_edge,
    update_attributes,
    update_road_weight,
    validate_batch,
)
from repro.road.network import SpatialPoint


class TestWireCodec:
    @pytest.mark.parametrize(
        "mutation",
        [
            add_social_edge(3, 17),
            remove_social_edge(5, 2),
            update_attributes(5, [0.2, 0.9, 0.4]),
            move_user(5, SpatialPoint.on_edge(2, 3, 1.5)),
            move_user(7, SpatialPoint.at_vertex(4)),
            update_road_weight(2, 3, 9.0),
        ],
    )
    def test_round_trip(self, mutation):
        wire = mutation_to_wire(mutation)
        assert wire["op"] in MUTATION_KINDS
        assert mutation_from_wire(wire) == mutation
        # the wire form is JSON-safe
        import json

        assert mutation_from_wire(json.loads(json.dumps(wire))) == mutation

    def test_unknown_op_is_typed(self):
        with pytest.raises(MutationError, match="unknown mutation op"):
            mutation_from_wire({"op": "truncate_graph"})

    def test_non_object_is_typed(self):
        with pytest.raises(MutationError, match="must be an object"):
            mutation_from_wire([1, 2])

    def test_bool_is_not_an_endpoint(self):
        with pytest.raises(MutationError, match="integer 'u'"):
            mutation_from_wire({"op": "add_social_edge", "u": True, "v": 2})

    def test_missing_endpoint_is_typed(self):
        with pytest.raises(MutationError, match="integer 'v'"):
            mutation_from_wire({"op": "remove_social_edge", "u": 1})

    def test_bad_attributes_are_typed(self):
        with pytest.raises(MutationError, match="'attributes' list"):
            mutation_from_wire(
                {"op": "update_attributes", "user": 1, "attributes": "high"}
            )
        with pytest.raises(MutationError, match="must be numbers"):
            mutation_from_wire(
                {"op": "update_attributes", "user": 1, "attributes": [0.1, "x"]}
            )

    def test_bad_point_is_typed(self):
        with pytest.raises(MutationError, match="'point' object"):
            mutation_from_wire({"op": "move_user", "user": 1, "point": 3})

    def test_bad_weight_is_typed(self):
        with pytest.raises(MutationError, match="numeric 'weight'"):
            mutation_from_wire(
                {"op": "update_road_weight", "u": 1, "v": 2, "weight": "fast"}
            )


class TestNormalizeBatch:
    def test_mixes_typed_and_wire(self):
        batch = normalize_batch(
            [add_social_edge(1, 4), {"op": "remove_social_edge", "u": 4, "v": 5}]
        )
        assert batch[0] == add_social_edge(1, 4)
        assert batch[1] == remove_social_edge(4, 5)

    def test_foreign_type_is_typed(self):
        with pytest.raises(MutationError, match="expected a mutation"):
            normalize_batch(["add_social_edge"])


class TestValidateBatch:
    def test_empty_batch_is_rejected(self, paper_network):
        with pytest.raises(MutationError, match="batch is empty"):
            validate_batch(paper_network, [])

    def test_self_loop_is_rejected(self, paper_network):
        with pytest.raises(MutationError, match="self-loop"):
            validate_batch(paper_network, [add_social_edge(3, 3)])

    def test_unknown_user_is_rejected(self, paper_network):
        with pytest.raises(MutationError, match="user 99"):
            validate_batch(paper_network, [add_social_edge(1, 99)])

    def test_duplicate_edge_is_rejected(self, paper_network):
        with pytest.raises(MutationError, match="already exists"):
            validate_batch(paper_network, [add_social_edge(2, 3)])

    def test_missing_edge_is_rejected(self, paper_network):
        with pytest.raises(MutationError, match="does not exist"):
            validate_batch(paper_network, [remove_social_edge(1, 4)])

    def test_error_names_the_offending_mutation(self, paper_network):
        with pytest.raises(MutationError, match=r"mutation 1 \(add_social"):
            validate_batch(
                paper_network, [add_social_edge(1, 4), add_social_edge(2, 3)]
            )

    def test_prefix_overlay_add_then_remove(self, paper_network):
        # (1, 4) does not exist, yet removing it after adding it is fine
        validate_batch(paper_network, [add_social_edge(1, 4), remove_social_edge(1, 4)])

    def test_prefix_overlay_remove_then_add(self, paper_network):
        validate_batch(paper_network, [remove_social_edge(2, 3), add_social_edge(2, 3)])

    def test_prefix_overlay_double_add_is_rejected(self, paper_network):
        with pytest.raises(MutationError, match="already exists"):
            validate_batch(
                paper_network, [add_social_edge(1, 4), add_social_edge(4, 1)]
            )

    def test_attribute_dimensionality_is_checked(self, paper_network):
        with pytest.raises(MutationError, match="expected 3 attributes"):
            validate_batch(paper_network, [update_attributes(3, [0.1, 0.2])])

    def test_attributes_must_be_finite(self, paper_network):
        with pytest.raises(MutationError, match="finite"):
            validate_batch(
                paper_network,
                [update_attributes(3, [0.1, float("nan"), 0.2])],
            )

    def test_move_point_is_validated(self, paper_network):
        with pytest.raises(MutationError, match="not in network"):
            validate_batch(paper_network, [move_user(3, SpatialPoint.at_vertex(99))])
        with pytest.raises(MutationError, match="exceeds edge length"):
            validate_batch(
                paper_network,
                [move_user(3, SpatialPoint.on_edge(1, 2, 100.0))],
            )

    def test_road_weight_needs_an_existing_edge(self, paper_network):
        with pytest.raises(MutationError, match="does not exist"):
            validate_batch(paper_network, [update_road_weight(1, 15, 2.0)])
        with pytest.raises(MutationError, match="non-negative"):
            validate_batch(paper_network, [update_road_weight(1, 2, -1.0)])
