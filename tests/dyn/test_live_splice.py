"""Spliced snapshots: every version must equal a full Terrace extraction.

:meth:`LiveGraph.apply` builds snapshot v+1 from snapshot v, re-reading
only the rows the batch can change.  :meth:`TerraceGraph.to_csr` is the
oracle: after every batch the spliced ``indptr``/``indices``/``weights``
must be bitwise-equal to a full extraction of the same spine state.  The
hypothesis property drives mixed batches (deletes, reweights, inserts and
tombstones) over fresh and restored live graphs; the named cases pin the
rows a splice is easiest to miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dyn.live as live_mod
from repro.analysis.sanitize import check_spliced_snapshot
from repro.dyn.live import LiveGraph
from repro.dyn.stream import MutationBatch
from repro.dyn.terrace import TerraceGraph
from repro.errors import SanitizerError
from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer, use_tracer


def _assert_bitwise(got: CSRGraph, want: CSRGraph) -> None:
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert got.weights.dtype == want.weights.dtype == np.float64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.weights.view(np.uint64), want.weights.view(np.uint64))


def _apply_checked(live: LiveGraph, batch: MutationBatch):
    snap = live.apply(batch)
    _assert_bitwise(snap.graph, live.terrace.to_csr())
    return snap


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
def _draw_batch(rng: np.random.Generator, live: LiveGraph, size: int) -> MutationBatch:
    """A valid mixed batch against ``live``'s current state.

    Edge updates start at live sources (a dead source is rejected); about
    half the deletes and reweights name an existing edge, the rest a
    random pair.  Inserts may target dead vertices or the source itself,
    and tombstones may name already-dead vertices.
    """
    n = live.num_vertices
    alive = np.flatnonzero(live.alive)
    g = live.graph
    src_of = g.edge_sources()

    def pairs(count):
        if alive.size == 0 or count == 0:
            return [], []
        out_s, out_d = [], []
        for _ in range(count):
            if g.num_edges and rng.random() < 0.5:
                e = int(rng.integers(g.num_edges))
                out_s.append(int(src_of[e]))
                out_d.append(int(g.indices[e]))
            else:
                out_s.append(int(rng.choice(alive)))
                out_d.append(int(rng.integers(n)))
        return out_s, out_d

    counts = rng.multinomial(size, [0.3, 0.25, 0.3, 0.15])
    del_s, del_d = pairs(counts[0])
    rw_s, rw_d = pairs(counts[1])
    ins_s, ins_d = pairs(counts[2])
    return MutationBatch.build(
        deletes=zip(del_s, del_d),
        reweights=[(u, v, float(rng.random() * 9 + 0.5)) for u, v in zip(rw_s, rw_d)],
        inserts=[(u, v, float(rng.random() * 9 + 0.5)) for u, v in zip(ins_s, ins_d)],
        tombstones=rng.integers(0, n, size=counts[3]).tolist(),
    )


@st.composite
def live_scripts(draw):
    """A seeded random graph plus per-batch seeds and sizes."""
    n = draw(st.integers(2, 24))
    avg_degree = draw(st.floats(0.5, 5.0))
    graph_seed = draw(st.integers(0, 2**31 - 1))
    batches = draw(
        st.lists(
            st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 12)),
            min_size=1,
            max_size=8,
        )
    )
    return n, avg_degree, graph_seed, batches


def _run_script(live: LiveGraph, batches) -> None:
    start = live.version
    for i, (seed, size) in enumerate(batches, start=1):
        snap = _apply_checked(live, _draw_batch(np.random.default_rng(seed), live, size))
        assert snap.version == start + i


@given(live_scripts())
@settings(max_examples=80, deadline=None)
def test_every_version_matches_to_csr(script):
    n, avg_degree, graph_seed, batches = script
    live = LiveGraph(erdos_renyi(n, avg_degree, seed=graph_seed))
    _assert_bitwise(live.graph, live.terrace.to_csr())
    _run_script(live, batches)


@given(live_scripts(), st.integers(0, 2**31 - 1), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_restored_live_graph_matches_to_csr(script, kill_seed, version):
    """A fabric-style restore: a fresh spine with tombstones, at version v."""
    n, avg_degree, graph_seed, batches = script
    terrace = TerraceGraph.from_csr(erdos_renyi(n, avg_degree, seed=graph_seed))
    rng = np.random.default_rng(kill_seed)
    terrace.delete_vertices(rng.integers(0, n, size=max(1, n // 4)))
    live = LiveGraph(terrace, version=version)
    _run_script(live, batches)


# ----------------------------------------------------------------------
# named regression cases
# ----------------------------------------------------------------------
def _chain():
    """0→1→2→3 plus 4→2 and 5→2: vertex 2 has in-edges from 1, 4 and 5."""
    return LiveGraph(
        from_edge_list(
            6,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 2, 2.0), (5, 2, 3.0), (4, 3, 4.0)],
        )
    )


def test_tombstone_drops_in_edges_from_untouched_rows():
    live = _chain()
    snap = _apply_checked(live, MutationBatch.build(tombstones=[2]))
    g = snap.graph
    assert g.neighbors(2)[0].size == 0
    assert 2 not in g.neighbors(1)[0].tolist()
    assert g.neighbors(4)[0].tolist() == [3]
    assert g.neighbors(5)[0].size == 0


def test_insert_toward_target_tombstoned_in_same_batch():
    live = _chain()
    snap = _apply_checked(
        live, MutationBatch.build(inserts=[(0, 3, 1.5)], tombstones=[3])
    )
    assert snap.graph.neighbors(0)[0].tolist() == [1]
    assert snap.summary.tombstoned.tolist() == [3]


def test_delete_and_reinsert_same_edge_in_one_batch():
    live = _chain()
    snap = _apply_checked(
        live, MutationBatch.build(deletes=[(1, 2)], inserts=[(1, 2, 7.0)])
    )
    assert snap.graph.edge_weight(1, 2) == 7.0


def test_self_loop_insert_is_dropped():
    live = _chain()
    before = live.graph
    snap = _apply_checked(live, MutationBatch.build(inserts=[(3, 3, 1.0)]))
    _assert_bitwise(snap.graph, before)


def test_reweight_toward_dead_target():
    live = _chain()
    _apply_checked(live, MutationBatch.build(tombstones=[3]))
    snap = _apply_checked(live, MutationBatch.build(reweights=[(2, 3, 9.0), (4, 3, 0.5)]))
    assert snap.graph.neighbors(2)[0].size == 0
    assert snap.graph.neighbors(4)[0].tolist() == [2]
    assert not snap.summary.has_decrease


def test_all_noop_batch_keeps_the_snapshot():
    live = _chain()
    _apply_checked(live, MutationBatch.build(tombstones=[5]))
    before = live.graph
    for batch in (
        MutationBatch.build(),
        MutationBatch.build(
            deletes=[(0, 3)],  # no such edge
            reweights=[(0, 2, 5.0)],  # no such edge
            inserts=[(1, 2, 9.0), (0, 0, 1.0)],  # heavier duplicate, self-loop
            tombstones=[5],  # already dead
        ),
    ):
        snap = _apply_checked(live, batch)
        _assert_bitwise(snap.graph, before)
        assert snap.graph is not before  # a new version, a new snapshot


# ----------------------------------------------------------------------
# the SAN-DYN splice oracle
# ----------------------------------------------------------------------
def _corrupt_weight(splice):
    def bad_splice(prev, terrace, rows):
        g = splice(prev, terrace, rows)
        w = g.weights.copy()
        w[-1] *= 2.0
        return CSRGraph(g.indptr, g.indices, w, check=False)

    return bad_splice


def test_sanitizer_catches_a_corrupted_splice(monkeypatch):
    monkeypatch.setenv("RPR_SANITIZE", "1")
    monkeypatch.setattr(live_mod, "_splice", _corrupt_weight(live_mod._splice))
    live = _chain()
    with pytest.raises(SanitizerError, match="SAN-DYN") as info:
        live.apply(MutationBatch.build(reweights=[(0, 1, 2.0)]))
    finding = info.value.finding
    assert finding.rule == "SAN-DYN"
    assert finding.context["vertex"] == 5  # the last non-empty row: 5→2
    assert "row 5, edge 0" in str(info.value)


def test_sanitizer_catches_a_spine_update_outside_apply(monkeypatch):
    monkeypatch.setenv("RPR_SANITIZE", "1")
    live = _chain()
    live.terrace.delete_edges([4], [3])  # bypasses apply: the splice misses row 4
    with pytest.raises(SanitizerError, match="row 4: 2 spliced edges, 1 extracted"):
        live.apply(MutationBatch.build(reweights=[(0, 1, 2.0)]))


def test_splice_check_passes_on_equal_snapshots():
    g = _chain().graph
    check_spliced_snapshot(g, g, version=1)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_traced_apply_emits_dyn_counters():
    live = _chain()
    tracer = Tracer()
    with use_tracer(tracer):
        live.apply(MutationBatch.build(reweights=[(0, 1, 2.0)], tombstones=[2]))
        live.apply(MutationBatch.build())
    # rows 0 (reweight), 2 (tombstone), 1, 4 and 5 (edges into 2)
    assert tracer.total("dyn.rows_rewritten") == 5
    # the up-edge 0→1 plus the newly dead vertex 2
    assert tracer.total("dyn.effective_mutations") == 2
