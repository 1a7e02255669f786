"""``peek dyn smoke``: the seeded live-graph serving smoke run."""

import json

from repro.cli import main


def test_smoke_reruns_byte_identical_and_reuses_prune_bounds(tmp_path):
    outputs = []
    for run in ("a", "b"):
        json_path = tmp_path / f"{run}.json"
        summary_path = tmp_path / f"{run}.txt"
        assert main([
            "dyn", "smoke", "--horizon", "1.0", "--quiet",
            "--json", str(json_path), "--summary", str(summary_path),
        ]) == 0
        outputs.append((json_path.read_bytes(), summary_path.read_bytes()))
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][0])
    assert payload["benchmark"] == "dyn_serving_smoke"
    assert payload["metrics"]["mutation_batches"] > 0
    assert payload["final_version"] > 0
    assert payload["prune_reuse_rate"] > 0
