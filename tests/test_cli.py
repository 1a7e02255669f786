"""Unit tests for the ``peek`` command line."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.experiments == []
        assert args.out == "results"

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["bench", "table3", "--scale", "tiny", "--pairs", "1", "--deadline", "5"]
        )
        assert args.experiments == ["table3"]
        assert args.scale == "tiny"
        assert args.pairs == 1
        assert args.deadline == 5.0

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("bench", "serve", "load", "dyn", "fabric"):
            assert command in out


class TestMain:
    def test_no_args_lists(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        for name in ("fig01", "fig04", "table3"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "figure99"])
        assert exc.value.code == 2
        assert "unknown" in capsys.readouterr().err

    def test_profile(self, capsys):
        assert main(["bench", "--profile", "LJ", "--scale", "tiny", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "pruning" in out

    def test_suite_table(self, capsys):
        assert main(["bench", "--suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark suite" in out
        for name in ("R21", "GT", "WLU"):
            assert name in out

    @pytest.mark.parametrize(
        "argv", [["--suite"], ["--profile", "LJ", "--k", "4"]], ids=["suite", "profile"]
    )
    def test_modes_honour_repro_scale(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["bench"] + argv) == 0
        assert "scale=tiny" in capsys.readouterr().out

    def test_runs_one_experiment(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "fig04",
                "--scale", "tiny",
                "--pairs", "1",
                "--deadline", "30",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fig04_pruning.txt").exists()
        assert "Figure 4" in capsys.readouterr().out


#: one bad input per subcommand and per kind of check
BAD_INPUT = {
    "bench-experiment": ["bench", "figure99"],
    "bench-profile-graph": ["bench", "--profile", "ER"],
    "serve-graph": ["serve", "--graph", "ER"],
    "serve-inject": ["serve", "--inject", "nonsense"],
    "load-record-graph": ["load", "record", "--graph", "ER", "--out", "t.jsonl"],
    "load-replay-graph": ["load", "replay", "--trace", "t.jsonl", "--graph", "ER"],
    "load-replay-missing-trace": ["load", "replay", "--trace", "missing.jsonl"],
    "dyn-graph": ["dyn", "smoke", "--graph", "ER"],
    "dyn-pool": ["dyn", "smoke", "--pool", "0"],
    "fabric-graph": ["fabric", "--graph", "ER"],
    "fabric-inject": ["fabric", "--inject", "nonsense"],
    "fabric-replicas": ["fabric", "--replicas", "0"],
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ": error: " in err.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["dyn", "smoke", "--horizon", "0.2", "--quiet",
         "--json", "{d}/x.json", "--summary", "{d}/x.txt"],
        ["load", "record", "--horizon", "0.05", "--out", "{d}/t.jsonl"],
        ["fabric", "--horizon", "0.1", "--max-queries", "20", "--quiet",
         "--json", "{d}/f.json", "--summary", "{d}/f.txt"],
    ],
    ids=["dyn", "load-record", "fabric"],
)
def test_output_parent_directories_are_created(argv, tmp_path):
    missing = tmp_path / "missing" / "dir"
    argv = [a.format(d=missing) for a in argv]
    assert main(argv) == 0
    written = [Path(a) for a in argv if a.startswith(str(missing))]
    assert written and all(p.is_file() for p in written)
