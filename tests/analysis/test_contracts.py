"""repro-contracts: fixture corpus, call graph, pragmas, incremental mode, CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.contracts.analyzer import CACHE_VERSION, analyze_paths
from repro.analysis.contracts.callgraph import build_callgraph
from repro.analysis.contracts.cli import main
from repro.analysis.contracts.config import (
    AuditGroup,
    ContractConfig,
    default_config,
)
from repro.analysis.contracts.model import load_project
from repro.analysis.contracts.registry import PASSES, RULES, UNUSED_PRAGMA
from repro.analysis.contracts.sarif import findings_to_sarif
from repro.analysis.findings import findings_to_json

FIXTURES = Path(__file__).parent / "fixtures" / "contracts"
LOCAL_FIXTURE = Path(__file__).parent / "fixtures" / "rpr004_bad.py"
SRC = Path(__file__).resolve().parents[2] / "src"

RULE_IDS = (
    "CTR101",
    "CTR102",
    "CTR103",
    "CTR201",
    "CTR301",
    "CTR401",
    "CTR402",
    "CTR501",
)
LOCAL_RULE_IDS = ("RPR001", "RPR003", "RPR004", "RPR005")


def _rules(paths, config=None):
    result = analyze_paths([str(FIXTURES / p) for p in paths], config=config)
    return {f.rule for f in result.findings}


def test_rule_catalogue_is_complete():
    pass_rules = RULE_IDS + LOCAL_RULE_IDS
    assert tuple(sorted(RULES)) == (UNUSED_PRAGMA,) + pass_rules
    assert tuple(sorted(r for info in PASSES for r in info.rules)) == pass_rules
    assert len(PASSES) == 6


# ----------------------------------------------------------------------
# one seeded violation (and one clean twin) per pass


def test_determinism_bad_fixture_fires_all_three_rules():
    assert _rules(["determinism_bad.py"]) == {"CTR101", "CTR102", "CTR103"}


def test_determinism_good_fixture_is_silent():
    assert _rules(["determinism_good.py"]) == set()


def test_cancellation_bad_fixture_fires():
    result = analyze_paths([str(FIXTURES / "cancellation_bad.py")])
    assert [f.rule for f in result.findings] == ["CTR201"]
    assert "checkpoint" in result.findings[0].message


def test_cancellation_good_fixture_is_silent():
    assert _rules(["cancellation_good.py"]) == set()


def test_spans_bad_fixture_fires_on_exception_path():
    result = analyze_paths([str(FIXTURES / "spans_bad.py")])
    assert [f.rule for f in result.findings] == ["CTR301"]
    assert "exception path" in result.findings[0].message


def test_spans_good_fixture_is_silent():
    # try/finally pairing AND the interprocedural closing-helper idiom
    assert _rules(["spans_good.py"]) == set()


def test_entry_bad_fixture_fires():
    result = analyze_paths(
        [str(FIXTURES / "entry_bad.py"), str(FIXTURES / "entry_kernel.py")]
    )
    assert [f.rule for f in result.findings] == ["CTR501"]
    assert result.findings[0].context["function"] == "solve"


def test_entry_good_fixture_is_silent():
    assert _rules(["entry_good.py", "entry_kernel.py"]) == set()


# ----------------------------------------------------------------------
# footprint audit (config-driven: the fixture group mirrors the real ones)


def _footprint_config(decl, kernel, shared):
    return ContractConfig(
        declarations_module=decl,
        audits=(
            AuditGroup(
                label="fixture",
                recorder="FixtureFootprints",
                functions=((kernel, "relax_chunk"),),
                shared=frozenset(shared),
            ),
        ),
    )


def test_footprints_bad_fixtures_fire_both_rules():
    config = _footprint_config(
        "repro/fixture/footprints_decl.py",
        "repro/fixture/footprints_kernel_bad.py",
        {"dist", "parent", "out", "frontier", "stale"},
    )
    result = analyze_paths(
        [
            str(FIXTURES / "footprints_decl.py"),
            str(FIXTURES / "footprints_kernel_bad.py"),
        ],
        config=config,
    )
    by_rule = {f.rule: f for f in result.findings}
    assert set(by_rule) == {"CTR401", "CTR402"}
    assert by_rule["CTR401"].context["resource"] == "parent"
    assert by_rule["CTR402"].context["resource"] == "stale"


def test_footprints_good_fixtures_are_silent():
    config = _footprint_config(
        "repro/fixture/footprints_decl_good.py",
        "repro/fixture/footprints_kernel_good.py",
        {"dist", "parent", "out", "frontier"},
    )
    result = analyze_paths(
        [
            str(FIXTURES / "footprints_decl_good.py"),
            str(FIXTURES / "footprints_kernel_good.py"),
        ],
        config=config,
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# call graph: the AlgorithmSpec registry indirection


def test_callgraph_resolves_through_registry_indirection():
    project = load_project(
        [
            str(FIXTURES / "registry_fixture.py"),
            str(FIXTURES / "registry_algo.py"),
            str(FIXTURES / "registry_caller.py"),
        ]
    )
    graph = build_callgraph(project, default_config())
    # extraction is over-approximate (the `_spec` helper's own parameter
    # is harvested too); what matters is that the real factory is there
    assert "FixtureAlgorithm" in graph.registry_factories
    drive = next(fn for fn in project.functions() if fn.name == "drive")
    edges = graph.edges[drive.key]
    # make_algorithm("fixture", ...) → the factory's constructor
    assert "repro/ksp/fixture_algo.py::FixtureAlgorithm.__init__" in edges
    # algo.run(k) → the registry-typed receiver's method
    assert "repro/ksp/fixture_algo.py::FixtureAlgorithm.run" in edges


# ----------------------------------------------------------------------
# whole-corpus runs: union of seeded violations, good twins silent


def test_whole_corpus_rules_and_good_modules_silent():
    result = analyze_paths([str(FIXTURES)])
    assert {f.rule for f in result.findings} == {
        "CTR101",
        "CTR102",
        "CTR103",
        "CTR201",
        "CTR301",
        "CTR501",
    }
    for f in result.findings:
        assert "_good" not in str(f.context.get("module", "")), f


def test_two_runs_are_byte_identical():
    first = analyze_paths([str(FIXTURES)]).findings
    second = analyze_paths([str(FIXTURES)]).findings
    assert findings_to_json(first) == findings_to_json(second)
    assert findings_to_sarif(first) == findings_to_sarif(second)


# ----------------------------------------------------------------------
# suppression pragmas: statement-span semantics


def _analyze_source(tmp_path, src, name="fixture.py"):
    p = tmp_path / name
    p.write_text(src)
    return analyze_paths([str(p)])


def test_pragma_on_multiline_statement_suppresses_it(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def f():\n"
        "    t = time.time(\n"
        "    )  # contracts: disable=CTR102\n"
        "    return t\n"
    )
    result = _analyze_source(tmp_path, src)
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_on_decorator_suppresses_the_whole_def(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def dec(f):\n"
        "    return f\n"
        "\n"
        "\n"
        "@dec  # contracts: disable=CTR102\n"
        "def g():\n"
        "    return time.time()\n"
    )
    result = _analyze_source(tmp_path, src)
    assert result.findings == []
    assert result.suppressed == 1


def test_pragma_on_loop_header_does_not_blanket_the_body(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def f(xs):\n"
        "    out = []\n"
        "    for x in xs:  # contracts: disable=CTR102\n"
        "        out.append(time.time())\n"
        "    return out\n"
    )
    result = _analyze_source(tmp_path, src)
    assert [f.rule for f in result.findings] == [UNUSED_PRAGMA, "CTR102"]
    assert result.suppressed == 0


def test_pragma_inside_a_string_is_inert(tmp_path):
    src = (
        '"""Docstring quoting a pragma:\n'
        "\n"
        "    x = 1  # contracts: disable=CTR102\n"
        '"""\n'
        "import time\n"
        "\n"
        "\n"
        "def f():\n"
        '    return time.time(), "# contracts: disable=CTR102"\n'
    )
    result = _analyze_source(tmp_path, src)
    # the string on the finding's line suppresses nothing, and the
    # docstring's quoted pragma is not reported as an unused one
    assert [(f.rule, f.line) for f in result.findings] == [("CTR102", 9)]
    assert result.suppressed == 0


def test_unused_pragma_fires(tmp_path):
    src = (
        "# contracts: module=repro/fixture/pragma.py\n"
        "import time\n"
        "\n"
        "\n"
        "def f(xs):\n"
        "    n = len(xs)  # contracts: disable=CTR102\n"
        "    return n, time.time()  # contracts: disable=CTR102\n"
    )
    result = _analyze_source(tmp_path, src)
    assert [(f.rule, f.line) for f in result.findings] == [(UNUSED_PRAGMA, 6)]
    assert "disable=CTR102" in result.findings[0].message
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# incremental mode


def _corpus_with_local_rules(tmp_path):
    """The contracts corpus plus a local-rule finding and an unused pragma."""
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURES, corpus)
    shutil.copy(LOCAL_FIXTURE, corpus / LOCAL_FIXTURE.name)
    (corpus / "stale_pragma.py").write_text(
        "def f(xs):\n    return len(xs)  # contracts: disable=CTR201\n"
    )
    return corpus


def test_incremental_cold_then_warm_agrees_with_full(tmp_path):
    corpus = _corpus_with_local_rules(tmp_path)
    full = analyze_paths([str(corpus)])
    assert {"RPR004", UNUSED_PRAGMA} <= {f.rule for f in full.findings}
    cache = tmp_path / "cache.json"
    cold = analyze_paths([str(corpus)], cache_path=cache)
    assert cold.cache_misses and not cold.cache_hits
    warm = analyze_paths([str(corpus)], cache_path=cache)
    assert warm.cache_hits and not warm.cache_misses
    for run in (cold, warm):
        assert [f.to_dict() for f in run.findings] == [
            f.to_dict() for f in full.findings
        ]
        assert run.suppressed == full.suppressed


def test_cache_from_an_older_version_is_not_replayed(tmp_path):
    corpus = _corpus_with_local_rules(tmp_path)
    cache = tmp_path / "cache.json"
    full = analyze_paths([str(corpus)], cache_path=cache)
    # what the last analyzer without the local pass (cache version 1)
    # would replay: same keys, no local-rule findings
    assert CACHE_VERSION > 1
    old = json.loads(cache.read_text())
    old["version"] = 1
    for entry in old["modules"].values():
        entry["findings"] = [
            d for d in entry["findings"] if d["rule"] not in LOCAL_RULE_IDS
        ]
    cache.write_text(json.dumps(old))
    rerun = analyze_paths([str(corpus)], cache_path=cache)
    assert not rerun.cache_hits
    assert [f.to_dict() for f in rerun.findings] == [
        f.to_dict() for f in full.findings
    ]


def test_incremental_reanalyzes_only_changed_modules_and_dependents(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURES, corpus)
    cache = tmp_path / "cache.json"
    analyze_paths([str(corpus)], cache_path=cache)

    # touching the kernel module dirties it and its entry-point callers
    kernel = corpus / "entry_kernel.py"
    kernel.write_text(kernel.read_text() + "\n\nEXTRA_CONSTANT = 1\n")

    inc = analyze_paths([str(corpus)], cache_path=cache)
    misses = set(inc.cache_misses)
    assert "repro/ksp/fixture_kernel.py" in misses
    assert "repro/fixture/entry_bad.py" in misses
    assert "repro/fixture/entry_good.py" in misses
    assert "repro/fixture/determinism_bad.py" in inc.cache_hits
    assert "repro/fixture/cancellation_bad.py" in inc.cache_hits

    fresh = analyze_paths([str(corpus)])
    assert [f.to_dict() for f in inc.findings] == [
        f.to_dict() for f in fresh.findings
    ]


# ----------------------------------------------------------------------
# CLI


def test_cli_exit_codes(capsys):
    assert main([str(FIXTURES / "determinism_good.py")]) == 0
    capsys.readouterr()
    assert main([str(FIXTURES / "determinism_bad.py")]) == 1
    captured = capsys.readouterr()
    assert "new finding" in captured.err
    assert "CTR101" in captured.out


def test_cli_missing_path(capsys):
    assert main(["no/such/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_syntax_error_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main([str(broken)]) == 2
    assert "broken.py" in capsys.readouterr().err


def test_cli_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "spans_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [item["rule"] for item in payload] == ["CTR301"]
    assert all(item["tool"] == "contracts" for item in payload)


def test_cli_sarif_format(capsys):
    assert main(["--format", "sarif", str(FIXTURES / "cancellation_bad.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    driver = doc["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-contracts"
    assert {r["id"] for r in driver["rules"]} >= set(RULE_IDS)
    results = doc["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["CTR201"]
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] > 0 and region["startColumn"] > 0


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
    assert set(LOCAL_RULE_IDS) <= set(RULES)


def test_cli_write_baseline_needs_baseline(capsys):
    bad = str(FIXTURES / "determinism_bad.py")
    assert main(["--write-baseline", bad]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_cli_baseline_ratchet(tmp_path, capsys):
    bad = str(FIXTURES / "determinism_bad.py")
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--write-baseline", bad]) == 0
    capsys.readouterr()
    # baselined findings no longer fail the run
    assert main(["--baseline", str(baseline), bad]) == 0
    assert "baselined" in capsys.readouterr().err
    # fixed debt is reported as stale, still exit 0
    good = str(FIXTURES / "determinism_good.py")
    assert main(["--baseline", str(baseline), good]) == 0
    assert "stale" in capsys.readouterr().err


def test_cli_incremental_and_report(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    report = tmp_path / "report.txt"
    rc = main(
        [
            "--incremental",
            "--cache",
            str(cache),
            "--report",
            str(report),
            str(FIXTURES / "determinism_good.py"),
        ]
    )
    assert rc == 0
    assert "incremental" in capsys.readouterr().err
    assert cache.exists()
    text = report.read_text()
    assert "modules analyzed" in text and "findings by pass" in text


def test_cli_output_is_deterministic(tmp_path, capsys):
    main(["--format", "json", str(FIXTURES)])
    first = capsys.readouterr().out
    main(["--format", "json", str(FIXTURES)])
    assert capsys.readouterr().out == first


# ----------------------------------------------------------------------
# the acceptance gate: the shipped tree holds its contracts


@pytest.mark.slow
def test_source_tree_holds_its_contracts():
    result = analyze_paths([str(SRC / "repro")])
    assert result.findings == []
