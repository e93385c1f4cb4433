"""Content-addressed on-disk result cache.

A cache entry is one completed :class:`~repro.runner.result.PointResult`,
stored under ``<root>/<k[:2]>/<k>.json`` where ``k`` is the sha256 of the
point's canonical identity **plus the code version**:

    key = sha256({"point": point.identity(), "code_version": <hash of sources>})

Re-running an unchanged sweep therefore only reads JSON files; changing the
spec (different sizes/seeds/params) or any source file under ``src/repro``
(or the suite's own bench file) changes the key and transparently invalidates
exactly the affected entries.  Only ``status == "ok"`` points are cached —
failures re-execute on the next run.

Writes are torn-write safe under concurrency: each writer stages into a
pid-unique temp file, then atomically renames it into place while holding an
exclusive ``flock`` on a per-entry ``.lock`` file, so two simultaneous
``repro bench run`` invocations can never interleave partial JSON.  Reads
that do find a corrupt entry (e.g. from a power loss mid-rename on a
non-atomic filesystem) discard it — the file is unlinked, never loaded.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None  # type: ignore[assignment]

from .cachekey import code_version, point_key
from .result import PointResult
from .spec import PointSpec

__all__ = ["ResultCache", "code_version", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".bench_cache"


class ResultCache:
    """Filesystem-backed point-result cache (one JSON file per entry)."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------
    @staticmethod
    def key_for(point: PointSpec, code_ver: str) -> str:
        return point_key(point, code_ver)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @contextlib.contextmanager
    def _entry_lock(self, path: Path):
        """Exclusive advisory lock scoped to one cache entry.

        Serializes writers (and the corrupt-entry unlink in :meth:`get`)
        against each other across processes.  No-op where ``fcntl`` is
        unavailable — the pid-unique temp + atomic rename in :meth:`put`
        still prevents torn writes there.
        """
        if fcntl is None:  # pragma: no cover - non-posix
            yield
            return
        lock_path = path.with_suffix(".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "w") as lock_fh:
            fcntl.flock(lock_fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_fh, fcntl.LOCK_UN)

    def _discard(self, path: Path) -> None:
        """Unlink a corrupt entry so it is never considered again."""
        with self._entry_lock(path):
            with contextlib.suppress(OSError):
                path.unlink()

    # -- access ---------------------------------------------------------
    def get(self, key: str) -> PointResult | None:
        path = self.path_for(key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError:
            self.misses += 1
            return None
        except json.JSONDecodeError:
            self._discard(path)
            self.misses += 1
            return None
        try:
            res = PointResult.from_dict(doc)
        except (KeyError, TypeError, ValueError):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        res.cached = True
        return res

    def put(self, key: str, result: PointResult) -> None:
        if result.status != "ok":
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = result.as_dict()
        doc["cached"] = False  # stored form; flagged True on retrieval
        # pid-unique temp: concurrent writers never share a staging file
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with self._entry_lock(path):
            try:
                with open(tmp, "w") as fh:
                    # one write from the C encoder; json.dump's pure-Python
                    # chunked encoder writes the same bytes in many pieces
                    fh.write(json.dumps(doc))
                tmp.replace(path)
            finally:
                with contextlib.suppress(OSError):
                    tmp.unlink()
