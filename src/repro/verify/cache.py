"""Incremental result cache for the whole-program source lint.

The interprocedural bands make ``lint-source`` a whole-program
analysis; without caching every invocation would reparse and re-check
all ~100 modules.  This cache stores, per module, everything the warm
path needs so an unchanged module is never parsed again:

* the **module summary** (:func:`repro.verify.callgraph.summarize_module`)
  — plain JSON, enough to rebuild the project symbol table, call graph
  and interprocedural facts with no AST;
* its **source-scope diagnostics** (RV4xx), already pragma-filtered;
* its **project-scope diagnostics** (RV5xx-RV7xx) together with the
  ``facts digest`` they were computed under — the content hash of the
  slice of project facts this module's findings depend on (callee
  return dimensions, task-root reachability, loop-call context).

Invalidation is therefore two-level and dependency-aware: the entry key
hashes the module's own text (plus lint config and schema versions), so
an edited module misses outright; and when a *callee* changes, the
edited module's new summary shifts its callers' facts digests, so only
the callers whose relevant facts actually moved are re-checked — the
rest reuse their cached project diagnostics.

Entries go through the characterisation cache's integrity envelope
(:class:`repro.characterize.cache.IntegrityEnvelope`) — ``{"schema",
"sha256", "payload"}`` with quarantine-on-corruption and warn-once on
unwritable directories — so a truncated write or bit-flip is detected,
never deserialised.  Lint traffic stays out of the characterisation
cache's hit/miss counters.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ..characterize.cache import CORRUPT_SUBDIR, IntegrityEnvelope

#: Bump when summary or diagnostic serialisation changes shape.
#: v2: summary schema 2 (shape returns, nonloop allocs) + RV8xx band.
#: v3: summary schema 3 (effect signatures, global reads) + RV9xx band.
#: v4: spawn_tgt atoms are Process-only (Thread targets stay local).
CACHE_SCHEMA_VERSION = 4

__all__ = ["CACHE_SCHEMA_VERSION", "CORRUPT_SUBDIR",
           "default_lint_cache_dir", "entry_key", "load", "store"]

_ENVELOPE = IntegrityEnvelope(CACHE_SCHEMA_VERSION, label="lint cache",
                              counted=False, indent=None)

#: Fetch one module's cached lint entry, or None.  The payload is
#: ``{"summary": ..., "source_diags": [...], "project": {"facts_digest":
#: ..., "diags": [...]} | None}``.
load = _ENVELOPE.load

#: Persist one module's lint entry (atomic, degrade-don't-raise).
store = _ENVELOPE.store


def default_lint_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` (or ``~/.cache/repro-nvsram``) + ``lint/``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-nvsram"
    return base / "lint"


def entry_key(text: str, config_digest: str) -> str:
    """Cache key for one module: its text, the policy, the schemas."""
    blob = hashlib.sha256()
    blob.update(text.encode())
    blob.update(b"\0")
    blob.update(config_digest.encode())
    blob.update(f"\0schema={CACHE_SCHEMA_VERSION}".encode())
    return blob.hexdigest()[:24]
