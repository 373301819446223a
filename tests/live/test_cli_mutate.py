"""The `repro mutate` command and the `index info` delta-depth line."""

import pytest

from repro.cli import main

DATASET = ["--dataset", "sf+slashdot", "--scale", "0.02", "--seed", "7"]
#: (0, 5) is a non-adjacent user pair of that dataset.
ADD = '{"op": "add_social_edge", "u": 0, "v": 5}\n'


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "snap"
    assert main(["index", "build", *DATASET, "--out", str(path), "--no-gtree"]) == 0
    return path


def write(tmp_path, text: str) -> str:
    path = tmp_path / "muts.jsonl"
    path.write_text(text)
    return str(path)


class TestMutateCommand:
    def test_dry_run(self, tmp_path, capsys):
        muts = write(tmp_path, ADD)
        assert main(["mutate", *DATASET, "--file", muts]) == 0
        out = capsys.readouterr().out
        assert "applied 1 mutation(s) in 1 batch(es)" in out
        assert "add_social_edge=1" in out
        assert "dry run" in out

    def test_snapshot_mode_appends_to_the_delta_log(self, tmp_path, snapshot, capsys):
        muts = write(tmp_path, ADD)
        argv = ["mutate", *DATASET, "--file", muts, "--snapshot", str(snapshot)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "delta log    depth 1" in out
        assert (snapshot / "deltas.jsonl").is_file()
        assert main(["index", "info", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "delta log    1 batch(es) replayed on load" in out
        # replay-aware: a second run starts after the logged batch, so
        # re-adding the same edge is a typed user error, not corruption
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err

    def test_batch_record_lines_are_accepted(self, tmp_path, capsys):
        muts = write(
            tmp_path,
            '{"mutations": [{"op": "add_social_edge", "u": 0, "v": 5}]}\n'
            '{"mutations": [{"op": "remove_social_edge", "u": 0, "v": 5}]}\n',
        )
        assert main(["mutate", *DATASET, "--file", muts]) == 0
        out = capsys.readouterr().out
        assert "applied 2 mutation(s) in 2 batch(es)" in out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        muts = write(tmp_path, "{not json\n")
        assert main(["mutate", *DATASET, "--file", muts]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_mixed_shapes_exit_2(self, tmp_path, capsys):
        remove = '{"mutations": [{"op": "remove_social_edge", "u": 0, "v": 5}]}\n'
        muts = write(tmp_path, ADD + remove)
        assert main(["mutate", *DATASET, "--file", muts]) == 2
        assert "mixes" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        muts = write(tmp_path, "# nothing here\n")
        assert main(["mutate", *DATASET, "--file", muts]) == 2
        assert "no mutations" in capsys.readouterr().err

    def test_unknown_user_is_a_clean_error(self, tmp_path, capsys):
        muts = write(tmp_path, '{"op": "add_social_edge", "u": 0, "v": 999999}\n')
        assert main(["mutate", *DATASET, "--file", muts]) == 2
        assert "not in the social network" in capsys.readouterr().err
