"""Disk cache for characterisation results.

Characterising a cell costs several transient simulations; the figure
sweeps (Fig. 7-9) reuse the same characterisations across dozens of
parameter points.  Results are cached as JSON keyed by a hash of every
input that affects them (cell kind, operating conditions, domain
geometry, device cards).

Each entry is an integrity envelope — ``{"schema", "sha256",
"payload"}`` — checksummed over the payload, so a truncated write, a
bit-flip or a stale-schema file is *detected* rather than silently
deserialised: the offending file is moved to ``<cache>/corrupt/`` and a
warning names it, instead of the old silent ``return None``.

The cache also degrades gracefully on unwritable directories (read-only
mounts, permission drift mid-sweep): the first failure warns once and
turns caching off for that directory instead of killing a long campaign
with an ``OSError`` at point 900 of 1000.

Every load/store lands in process-wide :class:`CacheStats` counters
(hits, misses, quarantines, served-entry ages) so the serve layer's
``/metrics`` endpoint and degraded-mode decisions can see cache health
without touching cache behaviour.

Set the ``REPRO_CACHE_DIR`` environment variable to relocate the cache;
pass ``cache_dir=None`` through the runner to disable caching entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Set

from ..exec.atomicio import atomic_write_text
from .data import CellCharacterization

#: Bump when characterisation semantics change to invalidate old entries.
#: 5: integrity envelope (schema + payload checksum) around each entry.
#: 6: numerical-trust extras (worst residual / condition estimate /
#:    defended-solve count) recorded with every characterisation.
#: 7: NV-FF entries moved from raw JSON into the same integrity
#:    envelope (generic payload API); raw pre-7 files get fresh keys.
CACHE_SCHEMA_VERSION = 7

#: Subdirectory quarantining entries that failed integrity checks.
CORRUPT_SUBDIR = "corrupt"

#: Cache directories that already warned about being unwritable; caching
#: is disabled for them for the rest of the process (warn once, not per
#: sweep point).
_UNWRITABLE: Set[str] = set()


class CacheStats:
    """Process-wide cache observability counters.

    Pure telemetry for ``/metrics`` and degraded-mode decisions in the
    serve layer: hits, misses, quarantines, stores, and the age of the
    entries actually served.  Counters never influence what a load
    returns — a process with the counters zeroed behaves identically.

    Thread-safe: the serve layer probes the cache from request threads
    while campaign workers store into it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.stores = 0
        self.store_failures = 0
        self.last_hit_age_s: Optional[float] = None
        self.max_hit_age_s: float = 0.0

    def note(self, event: str, age_s: Optional[float] = None) -> None:
        with self._lock:
            if event == "hit":
                self.hits += 1
                if age_s is not None:
                    self.last_hit_age_s = age_s
                    self.max_hit_age_s = max(self.max_hit_age_s, age_s)
            elif event == "miss":
                self.misses += 1
            elif event == "quarantine":
                self.quarantined += 1
            elif event == "store":
                self.stores += 1
            elif event == "store_failure":
                self.store_failures += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
                "stores": self.stores,
                "store_failures": self.store_failures,
                "hit_rate": (self.hits / total) if total else None,
                "last_hit_age_s": self.last_hit_age_s,
                "max_hit_age_s": self.max_hit_age_s,
            }

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.quarantined = 0
            self.stores = self.store_failures = 0
            self.last_hit_age_s = None
            self.max_hit_age_s = 0.0


#: The process-wide counter object (see :class:`CacheStats`).
STATS = CacheStats()


def _note(event: str, age_s: Optional[float] = None) -> None:
    """Single funnel for counter bumps on task-reachable paths.

    Deliberate module-state mutation: the counters are observability
    only — a task rerun with them zeroed produces identical payloads
    (mirrors the ``_UNWRITABLE`` warn-once precedent above).
    """
    STATS.note(event, age_s)  # lint: skip=RV601


def _entry_age_s(path: Path) -> Optional[float]:
    """Age of a cache entry in seconds, from its mtime; None if unknown.

    Wall-clock read on a task-reachable path is deliberate: the age
    feeds counters and degraded-mode staleness stamps, never the cached
    payload itself.
    """
    try:
        mtime = path.stat().st_mtime
        return max(0.0, time.time() - mtime)  # lint: skip=RV602
    except OSError:
        return None


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-nvsram``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-nvsram"


def _normalise(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        payload = asdict(value)
        payload["__type__"] = type(value).__name__
        return {k: _normalise(v) for k, v in payload.items()}
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, float):
        return float(repr(value))
    return value


def cache_key(**inputs: Any) -> str:
    """Deterministic hash of the characterisation inputs."""
    inputs["__schema__"] = CACHE_SCHEMA_VERSION
    blob = json.dumps(_normalise(inputs), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _payload_checksum(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@dataclass(frozen=True)
class IntegrityEnvelope:
    """Checksummed ``{"schema", "sha256", "payload"}`` JSON cache entries.

    The one implementation behind this cache and the lint cache
    (:mod:`repro.verify.cache`).  Entries failing the integrity check
    are quarantined to ``<cache>/corrupt/`` with a warning; stores are
    atomic; an unwritable directory warns once and turns caching off
    for that directory.  ``label`` names the entries in warnings, and
    only a ``counted`` envelope feeds the :data:`STATS` counters.
    """

    schema: int
    label: str = "cache"
    counted: bool = True
    indent: Optional[int] = 2

    def _note(self, event: str, age_s: Optional[float] = None) -> None:
        if self.counted:
            _note(event, age_s)

    def quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry to ``<cache>/corrupt/`` and warn about it."""
        target = path.parent / CORRUPT_SUBDIR / path.name
        moved = ""
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            moved = f"; moved to {target}"
        except OSError:
            pass    # read-only cache / concurrent quarantine: still warn
        self._note("quarantine")
        warnings.warn(
            f"discarding {self.label} entry {path.name}: {reason}{moved} "
            "(it will be recomputed)",
            RuntimeWarning,
            stacklevel=4,
        )

    def load(self, cache_dir: Optional[Path],
             key: str) -> Optional[Dict[str, Any]]:
        """The intact payload stored under ``key``, or None."""
        if cache_dir is None:
            return None
        path = Path(cache_dir) / f"{key}.json"
        try:
            text = path.read_text()
        except FileNotFoundError:
            self._note("miss")
            return None
        except OSError as err:
            warnings.warn(f"cannot read {self.label} entry {path}: {err}",
                          RuntimeWarning, stacklevel=3)
            self._note("miss")
            return None
        age_s = _entry_age_s(path) if self.counted else None
        payload = self._unwrap(path, text)
        if payload is None:
            self._note("miss")
        else:
            self._note("hit", age_s)
        return payload

    def _unwrap(self, path: Path, text: str) -> Optional[Dict[str, Any]]:
        """The envelope's payload; quarantines the entry if it is bad."""
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as err:
            self.quarantine(path, f"unparseable JSON ({err})")
            return None
        if not isinstance(envelope, dict) or "payload" not in envelope:
            self.quarantine(path, "not an integrity envelope")
            return None
        schema = envelope.get("schema")
        if schema != self.schema:
            self.quarantine(path, f"schema {schema!r} != {self.schema}")
            return None
        payload = envelope["payload"]
        expected = envelope.get("sha256")
        if not isinstance(payload, dict) or not isinstance(expected, str):
            self.quarantine(path, "malformed envelope fields")
            return None
        actual = _payload_checksum(payload)
        if actual != expected:
            self.quarantine(path, f"checksum mismatch (stored "
                                  f"{expected[:12]}..., computed "
                                  f"{actual[:12]}...)")
            return None
        return payload

    def store(self, cache_dir: Optional[Path], key: str,
              payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key``; never raises on I/O."""
        if cache_dir is None:
            return
        directory = Path(cache_dir)
        if str(directory) in _UNWRITABLE:
            return
        envelope = json.dumps(
            {"schema": self.schema,
             "sha256": _payload_checksum(payload),
             "payload": payload},
            indent=self.indent, sort_keys=True,
        )
        try:
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(directory / f"{key}.json", envelope)
        except OSError as err:
            self._note("store_failure")
            # Deliberate module-state write on a task-reachable path: the
            # warn-once set only gates *warning noise*, never results — a
            # task rerun without it produces identical payloads, louder.
            _UNWRITABLE.add(str(directory))  # lint: skip=RV601
            warnings.warn(
                f"{self.label} directory {directory} is not writable "
                f"({err}); continuing with caching disabled for this "
                "directory",
                RuntimeWarning,
                stacklevel=3,
            )
        else:
            self._note("store")


#: The characterisation cache's entries.
_ENVELOPE = IntegrityEnvelope(CACHE_SCHEMA_VERSION)


def entry_age_s(cache_dir: Optional[Path], key: str) -> Optional[float]:
    """Age of the entry for ``key`` in seconds, or None if absent."""
    if cache_dir is None:
        return None
    return _entry_age_s(Path(cache_dir) / f"{key}.json")


def load_payload(cache_dir: Optional[Path],
                 key: str) -> Optional[Dict[str, Any]]:
    """Fetch a cached payload dict through the integrity envelope.

    Entries failing the integrity check (unparseable JSON, missing or
    mismatched checksum, stale schema) are quarantined with a warning
    rather than silently ignored — a corrupt cache should be *visible*.
    Callers that then find the payload does not fit their result type
    should hand it back via :func:`reject_payload`.

    Every call lands in the counters: one ``hit`` (with the entry's
    age) or one ``miss``; quarantines additionally count as
    ``quarantine``.
    """
    return _ENVELOPE.load(cache_dir, key)


def reject_payload(cache_dir: Optional[Path], key: str,
                   reason: str) -> None:
    """Quarantine an entry whose payload failed the caller's type fit.

    The envelope was intact (so :func:`load_payload` counted a hit) but
    the payload no longer matches the result dataclass — schema drift
    the envelope cannot see.  Quarantines and warns like any other bad
    entry.
    """
    if cache_dir is None:
        return
    _ENVELOPE.quarantine(Path(cache_dir) / f"{key}.json", reason)


def load(cache_dir: Optional[Path], key: str) -> Optional[CellCharacterization]:
    """Fetch a cached characterisation, or None.

    :func:`load_payload` semantics, plus the payload must fit
    :class:`CellCharacterization` (else the entry is quarantined).
    """
    payload = load_payload(cache_dir, key)
    if payload is None:
        return None
    try:
        return CellCharacterization(**payload)
    except TypeError as err:
        reject_payload(cache_dir, key,
                       f"payload does not fit CellCharacterization ({err})")
        return None


def store_payload(cache_dir: Optional[Path], key: str,
                  payload: Dict[str, Any]) -> None:
    """Persist a payload dict inside the integrity envelope.

    Safe under concurrent writers (parallel figure sweeps sharing one
    cache): each writer stages into its own ``mkstemp`` file before the
    atomic rename, so two processes storing the same key can never
    interleave into a corrupt entry.

    An unwritable directory (read-only mount, permission change mid
    sweep) warns once and degrades to cache-off instead of raising —
    losing the cache must never lose the run.
    """
    _ENVELOPE.store(cache_dir, key, payload)


def store(cache_dir: Optional[Path], key: str,
          result: CellCharacterization) -> None:
    """Persist a characterisation result (see :func:`store_payload`)."""
    if cache_dir is None:
        return
    store_payload(cache_dir, key, json.loads(result.to_json()))
