"""The ``.repro_cache`` result cache: one pickle per answer.

Simulation cells (``sim``), characterizations (``char``), sharing
measurements (``sharing``) and design answers (``design``) persist as
``<cache_dir>/<kind>/<sha256>.pkl``.  The digest covers the caller's
key -- every input that determines the value -- and
:func:`source_fingerprint`, so any edit to a ``.py`` file of the
package starts a fresh cache with no version to bump by hand.
Over-invalidation is accepted: the cache is disposable.

Entries are never trusted.  One that fails to unpickle, or unpickles to
the wrong type, moves to ``<cache_dir>/quarantine/<kind>-<name>``
(counted in ``repro_cache_corrupt_total{kind}``) and reads as a miss.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from pathlib import Path

from repro.ioutil import atomic_write_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = ["DiskCache", "source_fingerprint", "tree_fingerprint"]

_log = get_logger("repro.diskcache")


def tree_fingerprint(root: str | os.PathLike) -> str:
    """SHA-256 over the sorted relative path and bytes of every ``.py``
    file under ``root``."""
    root = Path(root)
    digest = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*.py")
    ):
        data = path.read_bytes()
        # Length-prefixed, so no two trees can hash the same byte stream.
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def source_fingerprint() -> str:
    """:func:`tree_fingerprint` of the installed ``repro`` package,
    computed once per process."""
    return tree_fingerprint(Path(__file__).resolve().parent)


class DiskCache:
    """Counted, quarantining pickle store under one cache directory.

    ``cache_dir=None`` disables it: loads miss without being counted and
    stores do nothing.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None,
        metrics: obs_metrics.MetricsRegistry,
    ) -> None:
        self.root = Path(cache_dir) if cache_dir is not None else None
        self._lookups = metrics.counter(
            "repro_cache_lookups_total",
            ".repro_cache disk lookups by kind (sim/char/sharing/design) and outcome",
            labelnames=("kind", "outcome"),
        )
        self._corrupt = metrics.counter(
            "repro_cache_corrupt_total",
            "Corrupt .repro_cache entries quarantined and recomputed, by kind",
            labelnames=("kind",),
        )

    def path(self, kind: str, key) -> Path | None:
        """Where the ``kind`` entry for ``key`` lives (``None`` when disabled)."""
        if self.root is None:
            return None
        payload = repr((source_fingerprint(), kind, key))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return self.root / kind / f"{digest}.pkl"

    def load(self, kind: str, key, expected: type):
        """The cached ``expected`` instance for ``key``, or ``None``.

        A missing file is an ordinary miss.  Anything else -- truncation,
        garbage bytes, a class renamed since the entry was written, a
        value of another type -- quarantines the file and misses.
        """
        path = self.path(kind, key)
        if path is None:
            return None
        value = None
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            pass
        except Exception as exc:  # pickle can raise nearly anything on garbage
            self._quarantine(path, kind, f"{type(exc).__name__}: {exc}")
        else:
            if not isinstance(value, expected):
                error = f"expected {expected.__name__}, found {type(value).__name__}"
                self._quarantine(path, kind, error)
                value = None
        self._lookups.labels(kind=kind, outcome="miss" if value is None else "hit").inc()
        return value

    def store(self, kind: str, key, value) -> None:
        path = self.path(kind, key)
        if path is None:
            return
        try:
            atomic_write_bytes(path, pickle.dumps(value))
        except OSError:
            pass  # a cold cache is only a slowdown, never an error

    def _quarantine(self, path: Path, kind: str, error: str) -> None:
        """Move ``path`` aside: its bytes stay inspectable but stop
        shadowing the slot."""
        self._corrupt.labels(kind=kind).inc()
        qdir = self.root / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{kind}-{path.name}")
        except OSError:
            try:
                path.unlink()  # at minimum stop tripping over it
            except OSError:
                pass
        _log.warning(
            "quarantined corrupt cache entry", kind=kind, path=str(path), error=error
        )
