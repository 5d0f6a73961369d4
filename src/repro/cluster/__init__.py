"""Distributed run-all: coordinator/worker execution over TCP.

The cluster layer lifts the orchestrator's task graph from one
machine's process pool to many machines, without changing what a run
*means*: a cluster run's figures and report are byte-identical to a
``--jobs N`` local run, because tasks are the same module-level
functions against the same content-addressed artifact store — only the
placement differs.

The pieces:

* :mod:`repro.wire` — length-prefixed JSON-over-TCP frames with an
  optional binary blob (sealed artifacts ride side-by-side with the
  control messages, no base64), shared with :mod:`repro.serve`; the
  cluster's own :data:`PROTOCOL_VERSION` gates the hello exchange.
* :mod:`repro.cluster.coordinator` — :class:`ClusterBackend`, an
  :class:`~repro.orchestrator.scheduler.ExecutionBackend` that serves
  ready tasks to workers under lease-based assignment.  A worker that
  misses heartbeats for a lease interval is declared dead; its leased
  tasks re-enter the scheduler's existing ``WorkerDied`` → retry path.
* :mod:`repro.cluster.worker` — the worker process: N local task slots
  against the worker's own store, results and obs spans shipped back.
* :mod:`repro.cluster.shipping` — content-addressed artifact transfer.
  Blobs travel sealed (checksum footer intact) and are re-verified on
  receipt, so a corrupt transfer is a retriable miss, never a committed
  artifact.

Entry points: ``repro cluster serve``, ``repro cluster worker``, and
``repro run-all --backend cluster --coordinator HOST:PORT``.
"""

from ..wire import parse_address

#: Bumped on any wire-format change; checked during the hello exchange.
PROTOCOL_VERSION = 1

__all__ = ["PROTOCOL_VERSION", "parse_address"]
