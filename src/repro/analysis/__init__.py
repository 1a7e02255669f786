"""Correctness tooling: static analysis, runtime sanitizers, race detection.

Three legs, one shared :class:`~repro.analysis.findings.Finding` record
(see ``docs/correctness_tooling.md`` for the full catalogue):

* :mod:`repro.analysis.contracts` — the one static analyzer: whole-program
  contract passes (CTR101–CTR501) plus the intraprocedural local rules
  (RPR001, RPR003–RPR005), under one pragma dialect and one baseline
  (``python -m repro.analysis.contracts src/repro`` or the
  ``repro-contracts`` console script);
* :mod:`repro.analysis.sanitize` — runtime invariant checks enabled by
  ``repro.solve(..., sanitize=True)`` or ``RPR_SANITIZE=1``;
* :mod:`repro.analysis.race` — vector-clock race detection over declared
  phase footprints of the parallel/distributed simulators.
"""

from repro.analysis.findings import (
    Finding,
    exit_code,
    findings_to_json,
    render_findings,
    worst_severity,
)
from repro.analysis.race import (
    DeltaSteppingFootprints,
    RaceDetector,
    check_workload,
)
from repro.analysis.sanitize import run_sanitized, sanitize_enabled_from_env

__all__ = [
    "Finding",
    "worst_severity",
    "exit_code",
    "render_findings",
    "findings_to_json",
    "RaceDetector",
    "DeltaSteppingFootprints",
    "check_workload",
    "run_sanitized",
    "sanitize_enabled_from_env",
]
