"""Per-shard checkpoint/restore for fabric replicas.

:class:`FabricSupervisor` specialises the distributed layer's
:class:`~repro.distributed.supervisor.DistSupervisor` for the serving
fabric: the unit of checkpointing is a *shard* (a contiguous vertex
range of the :class:`~repro.fabric.router.ShardMap`'s partition) of the
fabric's authoritative :class:`~repro.dyn.live.LiveGraph`, not a rank's
algorithm-state slice.  Each shard's payload is its CSR rows (row
pointer slice, targets, weights), its vertex-liveness slice, and the
graph version — everything needed to reassemble a bitwise-identical
snapshot.  Payloads live in the same CRC32-checksummed
:class:`~repro.distributed.checkpoint.CheckpointStore` (keyed by shard
id in the store's rank slot), so a corrupted checkpoint surfaces as a
:class:`~repro.errors.SanitizerError` at restore rather than silently
rebuilding a replica from garbage; checkpoint bytes and recovery time
are charged through the communicator's BSP model exactly like the
distributed solvers charge theirs.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.distributed.supervisor import DistSupervisor
from repro.errors import SanitizerError
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer

__all__ = ["FabricSupervisor"]


class FabricSupervisor(DistSupervisor):
    """Checkpoint/restore of the authoritative graph, one shard per slot."""

    def __init__(self, comm, shard_map, *, store=None, max_recoveries: int = 8):
        # an explicit base call (not super()) lets repro-contracts resolve
        # it exactly: constructing a supervisor runs no query code
        DistSupervisor.__init__(
            self,
            comm,
            policy="restart",
            checkpoint_interval=1,
            max_recoveries=max_recoveries,
            store=store,
        )
        self.shard_map = shard_map

    # ------------------------------------------------------------------
    def save_shards(self, live) -> list[int]:
        """Coordinated snapshot of ``live`` (the authority), per shard.

        Returns per-shard payload sizes; the write is charged through
        :meth:`SimComm.charge_checkpoint
        <repro.distributed.comm.SimComm.charge_checkpoint>` so the BSP
        accounting sees it.
        """
        graph = live.graph
        alive = live.alive
        version = live.version
        indptr = graph.indptr
        shard_bytes: list[int] = []
        for shard in range(self.shard_map.num_shards):
            lo, hi = self.shard_map.shard_range(shard)
            e_lo, e_hi = int(indptr[lo]), int(indptr[hi])
            payload = pickle.dumps(
                {
                    "version": version,
                    "range": (lo, hi),
                    "indptr": indptr[lo : hi + 1].copy(),
                    "indices": graph.indices[e_lo:e_hi].copy(),
                    "weights": graph.weights[e_lo:e_hi].copy(),
                    "alive": alive[lo:hi].copy(),
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            shard_bytes.append(self.store.save_rank(version, shard, payload))
        self.comm.charge_checkpoint(shard_bytes)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("fabric.checkpoints")
        return shard_bytes

    def restore_shards(self) -> tuple[CSRGraph, np.ndarray, int]:
        """Reassemble the checkpointed graph: ``(csr, alive, version)``.

        Every shard's CRC is verified by the store on load; a version
        skew between shards (a torn, non-coordinated snapshot) raises
        :class:`~repro.errors.SanitizerError` — restarting a replica from
        a frankengraph is the failure mode this check exists for.
        """
        parts = [
            pickle.loads(self.store.load_rank(shard))
            for shard in range(self.shard_map.num_shards)
        ]
        versions = {p["version"] for p in parts}
        if len(versions) != 1:
            raise SanitizerError(
                f"torn fabric checkpoint: shard versions {sorted(versions)} "
                "disagree (coordinated snapshots must share one version)"
            )
        degrees = [np.diff(p["indptr"]) for p in parts]
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [d.astype(np.int64) for d in degrees]
        ).cumsum()
        csr = CSRGraph(
            indptr,
            np.concatenate([p["indices"] for p in parts]),
            np.concatenate([p["weights"] for p in parts]),
        )
        alive = np.concatenate([p["alive"] for p in parts])
        return csr, alive, versions.pop()

    def checkpoint_bytes(self) -> list[int]:
        """Per-shard payload sizes of the latest snapshot."""
        return self.store.rank_bytes()
