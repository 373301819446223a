"""CLI, summary and DOT-export tests."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.api import gs_nc
from repro.dominance.graph import DominanceGraph

from tests.conftest import paper_attributes


class TestCLI:
    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "sf+slashdot", "--scale",
                     "0.05"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "k_max" in out

    def test_search(self, capsys):
        code = main([
            "search", "--dataset", "sf+slashdot", "--scale", "0.1",
            "--k", "4", "--query-size", "2", "--members",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAC search" in out

    def test_case(self, capsys):
        assert main(["case", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "Jiawei Han" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_library_errors_are_clean(self, capsys):
        # ReproError from any command surfaces as error + exit 2
        code = main([
            "search", "--dataset", "sf+slashdot", "--scale", "0.05",
            "--k", "4", "--query-size", "2", "--j", "0",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_search_explain(self, capsys):
        code = main([
            "search", "--dataset", "sf+slashdot", "--scale", "0.05",
            "--k", "4", "--query-size", "2", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan for" in out and "range filter" in out

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_search_json(self, capsys):
        import json

        code = main([
            "search", "--dataset", "sf+slashdot", "--scale", "0.05",
            "--k", "4", "--query-size", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["k"] == 4
        assert "partitions" in payload and "engine" in payload
        for entry in payload["partitions"]:
            assert sorted(entry) == ["communities", "weight"]

    def test_search_explain_json(self, capsys):
        import json

        code = main([
            "search", "--dataset", "sf+slashdot", "--scale", "0.05",
            "--k", "4", "--query-size", "2", "--explain", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["searcher"] in ("GS-NC", "LS-NC")
        assert "plan for" in payload["summary"]


class TestServeCommand:
    def test_bad_service_config_is_clean_error(self, capsys):
        code = main([
            "serve", "--dataset", "sf+slashdot", "--scale", "0.05",
            "--workers", "0",
        ])
        assert code == 2
        assert "max_concurrency" in capsys.readouterr().err

    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--dataset", "fl+yelp", "--scale", "0.1",
            "--snapshot", "idx/", "--port", "0", "--workers", "8",
            "--queue-depth", "2", "--default-deadline", "1.5",
        ])
        assert args.func.__name__ == "cmd_serve"
        assert args.snapshot == "idx/"
        assert args.workers == 8
        assert args.default_deadline == 1.5


class TestBatchCommand:
    BASE = ["batch", "--dataset", "sf+slashdot", "--scale", "0.05"]

    def _write(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_batch_runs_and_reports_cache(self, capsys, tmp_path):
        line = '{"query_size": 2, "query_seed": 1, "k": 4, "algorithm": "local"}'
        path = self._write(tmp_path, ["# comment", line, "", line])
        assert main([*self.BASE, "--requests", path, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "line-2:" in out and "line-4:" in out
        assert "batch: 2 request(s)" in out
        assert "cache hits=" in out

    def test_batch_rejects_bad_json(self, capsys, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        assert main([*self.BASE, "--requests", path]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_batch_rejects_bad_request(self, capsys, tmp_path):
        path = self._write(
            tmp_path, ['{"query": [1, 2], "k": 4, "problem": "best"}']
        )
        assert main([*self.BASE, "--requests", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "problem" in err

    def test_batch_requires_k(self, capsys, tmp_path):
        path = self._write(tmp_path, ['{"query": [1, 2]}'])
        assert main([*self.BASE, "--requests", path]) == 2
        assert "missing required field 'k'" in capsys.readouterr().err

    def test_batch_empty_input(self, capsys, tmp_path):
        path = self._write(tmp_path, ["# only a comment"])
        assert main([*self.BASE, "--requests", path]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_batch_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main([*self.BASE, "--requests", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_batch_region_conflicts_with_sigma(self, capsys, tmp_path):
        path = self._write(tmp_path, [
            '{"query": [1, 2], "k": 4, "sigma": 0.02,'
            ' "region": {"lows": [0.29, 0.29], "highs": [0.31, 0.31]}}'
        ])
        assert main([*self.BASE, "--requests", path]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_batch_invalid_region_bounds_name_the_line(
        self, capsys, tmp_path
    ):
        path = self._write(tmp_path, [
            '{"query": [1, 2], "k": 4,'
            ' "region": {"lows": [0.5, 0.5], "highs": [0.3, 0.3]}}'
        ])
        assert main([*self.BASE, "--requests", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "lo <= hi" in err

    def test_batch_malformed_region_spec(self, capsys, tmp_path):
        path = self._write(
            tmp_path, ['{"query": [1, 2], "k": 4, "region": {"low": [0.1]}}']
        )
        assert main([*self.BASE, "--requests", path]) == 2
        assert "'lows' and 'highs'" in capsys.readouterr().err

    def test_batch_infers_topj_from_j(self, capsys, tmp_path):
        # mirror of `search --j 3`: an explicit j > 1 means top-j
        path = self._write(
            tmp_path,
            ['{"query_size": 2, "query_seed": 1, "k": 4, "j": 2,'
             ' "algorithm": "local"}'],
        )
        assert main([*self.BASE, "--requests", path, "--workers", "1"]) == 0
        assert "line-1:" in capsys.readouterr().out

    def test_batch_unknown_user_names_line(self, capsys, tmp_path):
        path = self._write(
            tmp_path, ['{"query": [99999999], "k": 4}']
        )
        assert main([*self.BASE, "--requests", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "99999999" in err

    def test_batch_region_dimension_mismatch(self, capsys, tmp_path):
        path = self._write(tmp_path, [
            '{"query": [1, 2], "k": 4,'
            ' "region": {"lows": [0.4], "highs": [0.6]}}'  # d=2 vs d=3
        ])
        assert main([*self.BASE, "--requests", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "d=2" in err

    def test_batch_badly_typed_field_is_clean_error(
        self, capsys, tmp_path
    ):
        path = self._write(tmp_path, ['{"query": [1, 2], "k": "four"}'])
        assert main([*self.BASE, "--requests", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1") and "Traceback" not in err


class TestIndexCommand:
    DATASET = ["--dataset", "sf+slashdot", "--scale", "0.05"]

    def _build(self, tmp_path, capsys, *extra):
        out = str(tmp_path / "snap")
        code = main(["index", "build", *self.DATASET, "--out", out, *extra])
        assert code == 0, capsys.readouterr().err
        return out

    def test_build_info_verify_round_trip(self, capsys, tmp_path):
        warm = tmp_path / "warm.jsonl"
        warm.write_text('{"query_size": 2, "query_seed": 1, "k": 4}\n')
        out = self._build(tmp_path, capsys, "--warm", str(warm))
        built = capsys.readouterr().out
        assert "snapshot written" in built
        assert "fingerprint  mset256:" in built
        assert "filter=1 core=1 dominance=1" in built

        assert main(["index", "info", out]) == 0
        info = capsys.readouterr().out
        assert "repro-index-snapshot v6" in info
        assert "g-tree" in info
        # The input picks the compute path: no snapshot records one.
        assert "backend" not in built and "backend" not in info

        assert main(["index", "verify", out]) == 0
        assert "snapshot ok" in capsys.readouterr().out

        assert main([
            "index", "verify", out, *self.DATASET,
        ]) == 0
        assert "verified against --dataset" in capsys.readouterr().out

    def test_verify_wrong_dataset_is_clean_error(self, capsys, tmp_path):
        out = self._build(tmp_path, capsys)
        capsys.readouterr()
        code = main([
            "index", "verify", out, "--dataset", "sf+slashdot",
            "--scale", "0.1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_info_on_missing_snapshot_is_clean_error(
        self, capsys, tmp_path
    ):
        code = main(["index", "info", str(tmp_path / "absent")])
        assert code == 2
        assert "not an index snapshot" in capsys.readouterr().err

    def test_build_no_gtree(self, capsys, tmp_path):
        out = self._build(tmp_path, capsys, "--no-gtree")
        assert "g-tree       absent" in capsys.readouterr().out
        assert main(["index", "verify", out]) == 0

    def test_build_rejects_bad_warm_file(self, capsys, tmp_path):
        warm = tmp_path / "warm.jsonl"
        warm.write_text('{"query": [1, 2]}\n')  # missing k
        out = str(tmp_path / "snap")
        code = main([
            "index", "build", *self.DATASET, "--out", out,
            "--warm", str(warm),
        ])
        assert code == 2
        assert "missing required field 'k'" in capsys.readouterr().err

    def test_loadable_by_engine(self, capsys, tmp_path):
        from repro import MACEngine, datasets

        out = self._build(tmp_path, capsys)
        ds = datasets.load_dataset("sf+slashdot", scale=0.05, seed=7)
        engine = MACEngine.load(out, ds.network)
        assert engine.network.has_gtree


class TestSummary:
    def test_summary_nonempty(self, paper_network, paper_region):
        res = gs_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        text = res.summary()
        assert "partition" in text
        assert "|H^t_k|=7" in text

    def test_summary_empty(self, paper_network, paper_region):
        res = gs_nc(paper_network, [2], 6, 9.0, paper_region)
        assert "no communities" in res.summary()

    def test_summary_truncates(self, paper_network, paper_region):
        res = gs_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        text = res.summary(max_rows=0)
        assert "more" in text or len(res.partitions) == 0


class TestDotExport:
    def test_fig4b_dot(self, paper_region):
        attrs = {v: np.asarray(x) for v, x in paper_attributes().items()
                 if v <= 7}
        gd = DominanceGraph(attrs, paper_region)
        dot = gd.to_dot(labels={v: f"v{v}" for v in range(1, 8)})
        assert dot.startswith("digraph Gd {")
        assert '"2" -> "3"' in dot
        assert '"4" -> "1"' in dot
        assert '"3" -> "7"' in dot
        assert '"2" -> "7"' not in dot  # transitive reduction
        assert dot.count("rank=same") == 3  # three layers
