"""Stable, content-addressed keys for persisted experiment artifacts.

Every artifact the orchestrator stores — traces, baseline
:class:`~repro.bpu.runner.PredictionResult`\\ s, profiles, trained
optimizers, timing results — is addressed by a SHA-256 digest over a
*canonical* JSON rendering of everything that determines its content:

* the application spec (full field dump, so editing the workload
  registry invalidates derived artifacts),
* the generation/training parameters (input ids, event counts,
  predictor size, optimizer config, ...), and
* :data:`CODE_SCHEMA_VERSION`, bumped whenever the semantics of the
  producing code or the on-disk encoding change.

The replay-kernel tier is deliberately not a key field: the scalar,
vector and native tiers are verified bit-identical, so one cache serves
every ``REPRO_KERNEL`` setting.

Keys deliberately avoid Python's salted ``hash()`` so the same request
maps to the same file across processes, machines, and interpreter
restarts — the property that lets parallel workers share one cache
directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

#: Bump whenever artifact-producing code or an on-disk codec changes
#: meaning: old cache entries become unreachable (stale keys) instead of
#: silently wrong.
#: v2: vectorised replay kernels — the timing simulator's cycle
#: accounting recomposed stall sums (float association changed), so v1
#: timing artifacts no longer match what the code produces.
#: v3: checksum-sealed artifact files — every store file now carries an
#: integrity footer; pre-v3 files would all land in quarantine, so a key
#: bump retires them as clean misses instead.
CODE_SCHEMA_VERSION = 3

#: Hex digits kept from the SHA-256 digest; 32 (128 bits) is far beyond
#: collision concerns for a per-project cache while keeping names short.
DIGEST_CHARS = 32


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serialisable structure.

    Handles dataclasses (by field dict), mappings (sorted, stringified
    keys), sequences, sets (sorted), and numpy scalars (via ``item()``).
    Rejects types without an obvious stable rendering rather than
    guessing.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(item) for item in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return obj.item()
    raise TypeError(f"cannot canonicalise {type(obj).__name__!r} for a cache key")


def canonical_json(obj: Any) -> str:
    """The canonical textual form actually hashed."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """Short stable digest of any canonicalisable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:DIGEST_CHARS]


def artifact_key(kind: str, **fields: Any) -> str:
    """The store key for one artifact request.

    ``kind`` names the artifact family (``trace``, ``prediction``,
    ``profile``, ``whisper``, ``rombf``, ``branchnet``, ``timing``);
    ``fields`` is everything that determines the artifact's content.
    The schema version always participates, so bumping it invalidates
    the whole cache at once.
    """
    payload = {"kind": kind, "schema": CODE_SCHEMA_VERSION, "fields": fields}
    return fingerprint(payload)


def spec_fingerprint(spec: Any) -> str:
    """Digest of an :class:`~repro.workloads.spec.AppSpec`.

    Uses the full field dump: any change to the registered workload
    definition (behaviour mix, footprint, seeds, ...) must invalidate
    every artifact derived from its traces.
    """
    return fingerprint(spec)


def config_fingerprint(config: Any) -> str:
    """Digest of an optimizer/predictor config dataclass (or ``None``)."""
    if config is None:
        return "default"
    return fingerprint(config)
