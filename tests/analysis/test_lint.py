"""The contract analyzer's local pass: RPR001/003/004/005 scopes, fixtures, pragmas."""

import json
from pathlib import Path

import pytest

from repro.analysis.contracts.analyzer import analyze_paths
from repro.analysis.contracts.cli import main
from repro.analysis.contracts.registry import PASSES, RULES

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"

RULE_IDS = ("RPR001", "RPR003", "RPR004", "RPR005")

_LOOP_ALLOC = "import numpy as np\ndef f(n):\n    for _ in range(3):\n        np.zeros(n)\n"


def _findings(path):
    return analyze_paths([str(path)]).findings


def _analyze(tmp_path, src, rel="fixture.py"):
    """Findings for ``src`` written at ``tmp_path/rel`` (``rel`` scopes the rules)."""
    p = tmp_path / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(src)
    return _findings(p)


def _rules(tmp_path, src, rel="fixture.py"):
    return [f.rule for f in _analyze(tmp_path, src, rel)]


def test_rule_catalogue_is_complete():
    local = next(info for info in PASSES if info.pass_id == "local")
    assert tuple(sorted(local.rules)) == RULE_IDS
    for rule in RULE_IDS:
        assert RULES[rule]


@pytest.mark.parametrize("rule", RULE_IDS)
def test_bad_fixture_fires_its_rule(rule):
    findings = _findings(FIXTURES / f"{rule.lower()}_bad.py")
    assert findings, f"{rule} bad fixture produced no findings"
    assert {f.rule for f in findings} == {rule}
    for f in findings:
        assert f.tool == "contracts"
        assert f.severity == "error"
        assert f.line is not None


@pytest.mark.parametrize("rule", RULE_IDS)
def test_good_fixture_is_silent(rule):
    assert _findings(FIXTURES / f"{rule.lower()}_good.py") == []


def test_rpr001_counts_every_mutation_shape():
    # subscript assign, .fill(), out=, augmented subscript — all four lines
    findings = _findings(FIXTURES / "rpr001_bad.py")
    assert [f.line for f in findings] == [7, 8, 9, 10]


def test_source_tree_is_clean():
    """The acceptance gate: zero findings over the shipped src/ tree."""
    assert _findings(SRC / "repro") == []


def test_disable_pragma_suppresses_one_line(tmp_path):
    src = (
        "def f(g):\n"
        "    g.weights[0] = 1.0  # contracts: disable=RPR001\n"
        "    g.weights[1] = 2.0\n"
    )
    findings = _analyze(tmp_path, src)
    assert [(f.rule, f.line) for f in findings] == [("RPR001", 3)]


def test_module_pragma_enables_path_scoped_rules(tmp_path):
    pragma = "# contracts: module=repro/sssp/fixture.py\n"
    assert _rules(tmp_path, pragma + _LOOP_ALLOC, "elsewhere.py") == ["RPR003"]
    # without the pragma the file is out of RPR003's scope
    assert _rules(tmp_path, _LOOP_ALLOC, "elsewhere.py") == []


def test_module_path_inferred_from_filename(tmp_path):
    assert _rules(tmp_path, _LOOP_ALLOC, "src/repro/sssp/foo.py") == ["RPR003"]
    assert _rules(tmp_path, _LOOP_ALLOC, "src/repro/graph/foo.py") == []


def test_mp_backend_in_rpr003_scope(tmp_path):
    mp = "src/repro/parallel/mp_backend.py"
    assert _rules(tmp_path, _LOOP_ALLOC, mp) == ["RPR003"]
    # the rest of repro/parallel/ (the simulator) stays out of scope
    assert _rules(tmp_path, _LOOP_ALLOC, "src/repro/parallel/scheduler.py") == []


def test_load_and_serve_layers_in_rpr003_scope(tmp_path):
    for path in (
        "src/repro/load/driver.py",
        "src/repro/serve/server.py",
    ):
        assert _rules(tmp_path, _LOOP_ALLOC, path) == ["RPR003"], path
    # the analysis tooling itself stays out of the hot-path scope
    assert _rules(tmp_path, _LOOP_ALLOC, "src/repro/analysis/race.py") == []


def test_rpr004_covers_load_latency_accumulators(tmp_path):
    src = "def f(latency, waits):\n    return latency == waits[0]\n"
    assert _rules(tmp_path, src, "src/repro/load/metrics.py") == ["RPR004"]


def test_workspace_module_exempt_from_rpr003(tmp_path):
    assert _rules(tmp_path, _LOOP_ALLOC, "src/repro/sssp/workspace.py") == []


def test_small_constant_allocation_allowed_in_loop(tmp_path):
    src = "import numpy as np\ndef f():\n    for _ in range(3):\n        np.zeros(8)\n"
    assert _rules(tmp_path, src, "src/repro/ksp/foo.py") == []


def test_rpr004_ignores_non_cost_identifiers(tmp_path):
    src = "def f(count, size):\n    return count == size\n"
    assert _rules(tmp_path, src, "src/repro/ksp/foo.py") == []


def test_rpr004_ignores_non_float_constants(tmp_path):
    # a cost-named value compared with a str/bytes/bool/None constant is
    # never a float-cost comparison (``KSampler.dist == "uniform"``)
    src = (
        "def f(dist, cost, total, bound):\n"
        '    a = dist == "uniform"\n'
        '    b = b"raw" != cost\n'
        "    c = total == True\n"
        "    d = bound != None\n"
        "    return a, b, c, d\n"
    )
    assert _rules(tmp_path, src, "src/repro/load/mixes.py") == []
    # numeric constants still count
    assert _rules(tmp_path, "def f(dist):\n    return dist == 0.0\n") == ["RPR004"]


def test_rpr005_requires_a_return(tmp_path):
    src = (
        "# contracts: module=repro/ksp/fixture.py\n"
        "def peek_ksp(g, s, t, k):\n"
        "    from repro.api import solve\n"
        "    solve(g, s, t, k)\n"
    )
    assert _rules(tmp_path, src) == ["RPR005"]


def test_cli_text_and_exit_codes(capsys):
    assert main([str(FIXTURES / "rpr001_good.py")]) == 0
    assert "0 new finding" in capsys.readouterr().err
    assert main([str(FIXTURES / "rpr001_bad.py")]) == 1
    captured = capsys.readouterr()
    assert "RPR001" in captured.out and "4 new finding" in captured.err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULE_IDS:
        assert rule in out


def test_cli_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "rpr004_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(item["rule"] == "RPR004" for item in payload)
    assert all(item["tool"] == "contracts" for item in payload)
