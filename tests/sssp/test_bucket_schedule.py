"""Pinned Δ-stepping schedule: the bucket driver's batches, not just agreement.

Every backend runs the one shared bucket driver, so the scalar/vectorized
equivalence suite cannot see a driver change that alters the *schedule*
(which vertices are relaxed together, in which phase) as long as both
backends follow it.  These tests pin the schedule itself:

* golden ``phases`` / ``edges_relaxed`` / ``vertices_settled``, the
  cancellation-checkpoint count (the simulated clock of
  :mod:`repro.load` advances per checkpoint) and a sha256 prefix of
  ``phase_work`` + ``dist`` + ``parent`` on the tiny suite and a few
  Erdős–Rényi graphs;
* hand-built graphs whose schedule is derived by hand: a filed vertex
  re-improved into a lower bucket (its old entry goes stale) and a vertex
  filed twice into one bucket;
* the duplicate-target reduction of ``_relax_batch``.
"""

import hashlib

import numpy as np
import pytest

from repro.cancel import fault_scope
from repro.graph.build import from_edge_list
from repro.graph.generators import erdos_renyi
from repro.graph.suite import suite_graph
from repro.sssp.delta_stepping import _relax_batch, delta_stepping

#: (graph, source, delta) -> (phases, edges_relaxed, vertices_settled,
#: checkpoints, sha256(phase_work + dist + parent)[:16])
GOLDEN = {
    ('R21', 0, None): (18, 1126, 182, 18, '044b05e1349b72a3'),
    ('R21', 0, 0.5): (11, 1203, 182, 11, 'f1ed797c485766c6'),
    ('R21', 255, None): (2, 0, 1, 2, 'e1e7446004516349'),
    ('R21', 255, 0.5): (2, 0, 1, 2, 'e1e7446004516349'),
    ('R21U', 0, None): (8, 1125, 182, 8, '421567ab9e9cf00f'),
    ('R21U', 0, 0.5): (8, 1125, 182, 8, '421567ab9e9cf00f'),
    ('R21U', 255, None): (2, 0, 1, 2, 'e1e7446004516349'),
    ('R21U', 255, 0.5): (2, 0, 1, 2, 'e1e7446004516349'),
    ('LJ', 0, None): (29, 1600, 272, 29, 'ba79ea0c793753bc'),
    ('LJ', 0, 0.5): (17, 1686, 272, 17, 'a75f17001dbff9e7'),
    ('LJ', 299, None): (32, 1602, 273, 32, '687e2a9d02953055'),
    ('LJ', 299, 0.5): (17, 1615, 273, 17, 'd1dbc1a08baf7818'),
    ('LJU', 0, None): (12, 1599, 272, 12, '9b61de07e281a04b'),
    ('LJU', 0, 0.5): (12, 1599, 272, 12, '9b61de07e281a04b'),
    ('LJU', 299, None): (12, 1602, 273, 12, 'a7f77703bde252f1'),
    ('LJU', 299, 0.5): (12, 1602, 273, 12, 'a7f77703bde252f1'),
    ('WL', 0, None): (49, 1161, 219, 49, 'bdb37821374019be'),
    ('WL', 0, 0.5): (25, 1178, 219, 25, '23b836dbd09d643b'),
    ('WL', 299, None): (47, 1167, 220, 47, '7f95c2292967bc79'),
    ('WL', 299, 0.5): (27, 1197, 220, 27, 'f5d4bba927335d25'),
    ('WLU', 0, None): (20, 1161, 219, 20, '2ba206f566a50110'),
    ('WLU', 0, 0.5): (20, 1161, 219, 20, '2ba206f566a50110'),
    ('WLU', 299, None): (22, 1167, 220, 22, 'df74519c0573adaf'),
    ('WLU', 299, 0.5): (22, 1167, 220, 22, 'df74519c0573adaf'),
    ('GW', 0, None): (15, 3967, 458, 15, 'f6c3a58e48befe90'),
    ('GW', 0, 0.5): (53, 2476, 458, 53, 'e23e216ca28fe69e'),
    ('GW', 599, None): (19, 6065, 459, 19, '918765b07abd39f6'),
    ('GW', 599, 0.5): (58, 2480, 459, 58, '3364167b56fa2dd7'),
    ('GT', 0, None): (14, 5004, 546, 14, 'b3ad08a658559aa0'),
    ('GT', 0, 0.5): (44, 3135, 546, 44, 'e007ce617130472c'),
    ('GT', 599, None): (13, 5387, 546, 13, 'aefc152c7e6c4eee'),
    ('GT', 599, 0.5): (46, 3145, 546, 46, 'b65f8ef9ff2d8eca'),
    ('er1', 0, None): (33, 976, 199, 33, '58dfb9e0dd31cb90'),
    ('er1', 0, 0.5): (21, 990, 199, 21, '89916ea258ea127f'),
    ('er1', 199, None): (30, 976, 199, 30, '0c9e32c2d43e30e5'),
    ('er1', 199, 0.5): (18, 985, 199, 18, 'ec3f2575692cba05'),
    ('er2', 0, None): (29, 977, 199, 29, '20a272dee23dad57'),
    ('er2', 0, 0.5): (16, 992, 199, 16, '12213c7e4584d069'),
    ('er2', 199, None): (28, 977, 199, 28, '832c41bd39b71683'),
    ('er2', 199, 0.5): (16, 1000, 199, 16, '89d21af15195cf6d'),
    ('er3', 0, None): (28, 970, 196, 28, '2201875219ac3ae7'),
    ('er3', 0, 0.5): (17, 1009, 196, 17, 'fa00d1bd1b6fe535'),
    ('er3', 199, None): (31, 970, 196, 31, '61cc0b1ac587bc6a'),
    ('er3', 199, 0.5): (19, 996, 196, 19, 'a54929576812b5bf'),
}


def _graph(name):
    if name.startswith("er"):
        return erdos_renyi(200, 5.0, seed=int(name[2:]))
    return suite_graph(name, "tiny")


def _run(g, source, delta=None, backend="vectorized"):
    """Run with a counting fault hook; return ``(result, checkpoints)``."""
    ticks = []
    with fault_scope(ticks.append):
        res = delta_stepping(g, source, delta=delta, backend=backend)
    return res, len(ticks)


def _fingerprint(res):
    h = hashlib.sha256()
    h.update(np.asarray(res.stats.phase_work, dtype="<i8").tobytes())
    h.update(res.dist.astype("<f8").tobytes())
    h.update(res.parent.astype("<i8").tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN, key=repr), ids=repr)
def test_golden_schedule(key):
    name, source, delta = key
    res, ticks = _run(_graph(name), source, delta)
    st = res.stats
    got = (st.phases, st.edges_relaxed, st.vertices_settled, ticks, _fingerprint(res))
    assert got == GOLDEN[key]
    assert len(st.phase_work) == st.phases
    assert sum(st.phase_work) == st.edges_relaxed


@pytest.mark.parametrize("backend", ["vectorized", "scalar"])
def test_stale_and_duplicate_entries_never_become_phases(backend):
    # Δ = 1.  Vertex 3 is filed three times: under bucket 5 by the heavy
    # edge 0→3, then under bucket 3 by 1→3 (3.0625) while still flagged,
    # then under bucket 3 again by 2→3 (3.0).  Bucket 3 must relax it
    # once, and the stale bucket-5 entry must not open a phase.
    g = from_edge_list(
        5,
        [
            (0, 1, 2.125),
            (0, 3, 5.0),
            (1, 2, 0.25),
            (1, 3, 0.9375),
            (2, 3, 0.625),
            (3, 4, 0.5),
        ],
    )
    res, ticks = _run(g, 0, delta=1.0, backend=backend)
    # bucket 0: light [0] (no light edges), heavy {0→1, 0→3}
    # bucket 2: light [1], light [2], heavy {1, 2} (no heavy edges)
    # bucket 3: light [3] (once), light [4], heavy {3, 4}
    assert res.stats.phase_work == [0, 2, 2, 1, 0, 1, 0, 0]
    assert res.stats.vertices_settled == 5
    assert res.dist.tolist() == [0.0, 2.125, 2.375, 3.0, 3.5]
    assert res.parent.tolist() == [0, 0, 1, 2, 3]
    # one check per bucket plus one per light step
    assert ticks == 8


def _batch(dist, targets, cands, sources):
    dist = np.asarray(dist, dtype=np.float64)
    parent = np.full(dist.size, -1, dtype=np.int64)
    improved = _relax_batch(
        dist,
        parent,
        np.asarray(targets, dtype=np.int64),
        np.asarray(cands, dtype=np.float64),
        np.asarray(sources, dtype=np.int64),
    )
    return improved, dist, parent


def test_relax_batch_all_candidates_lose():
    # equal is not better: nothing improves, nothing is written
    improved, dist, parent = _batch([0.0, 1.0, 2.0], [1, 2, 1], [1.5, 2.0, 1.0], [0, 0, 2])
    assert improved.size == 0 and improved.dtype == np.int64
    assert dist.tolist() == [0.0, 1.0, 2.0]
    assert parent.tolist() == [-1, -1, -1]


def test_relax_batch_tie_behind_a_losing_entry():
    # target 1: a losing 6.0 first, then a tie at 3.0 — the earlier of the
    # tied entries (source 8) wins; target 0 improves independently
    improved, dist, parent = _batch(
        [9.0, 5.0, 0.0],
        [1, 0, 1, 1, 0],
        [6.0, 4.0, 3.0, 3.0, 7.0],
        [7, 5, 8, 9, 6],
    )
    assert improved.tolist() == [0, 1]
    assert dist.tolist() == [4.0, 3.0, 0.0]
    assert parent.tolist() == [5, 8, -1]


@pytest.mark.parametrize("seed", range(20))
def test_relax_batch_matches_first_minimum_rule(seed):
    rng = np.random.default_rng(seed)
    n, bs = 12, 40
    dist0 = rng.choice([np.inf, 1.0, 2.0, 3.0], size=n)
    targets = rng.integers(0, n, bs)
    cands = rng.choice([1.0, 2.0, 2.5, 3.0], size=bs)  # many exact ties
    sources = rng.integers(0, n, bs)
    improved, dist, parent = _batch(dist0.copy(), targets, cands, sources)
    # reference: earliest minimum per target, committed on strict <
    want_d, want_p = dist0.copy(), np.full(n, -1, dtype=np.int64)
    best = {}
    for t, c, s in zip(targets.tolist(), cands.tolist(), sources.tolist()):
        if t not in best or c < best[t][0]:
            best[t] = (c, s)
    want_i = []
    for t in sorted(best):
        c, s = best[t]
        if c < dist0[t]:
            want_d[t], want_p[t] = c, s
            want_i.append(t)
    assert improved.tolist() == want_i
    assert np.array_equal(dist, want_d)
    assert np.array_equal(parent, want_p)
