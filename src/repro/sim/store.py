"""On-disk content-addressed result store for simulation results.

``ExperimentRunner`` backs its in-process memo with this store so that
``python -m repro.experiments fig18 fig21`` reuses results across
invocations exactly as the in-memory cache does within one. Entries are
keyed by a stable SHA-256 of:

* the canonical serialisation of the full :class:`SimulationConfig`
  (nested dataclasses flattened field by field, enums by value), and
* a fingerprint of the code-relevant architectural constants
  (``repro.common.constants``) plus a store schema version.

The constants fingerprint means a change to, say, the LLC size or the
coalescing window defaults silently invalidates every cached result --
stale numbers can never leak into a figure. It does *not* cover
arbitrary code changes; bump :data:`STORE_VERSION` when simulator
behaviour changes without a constant moving (the capture-record layout
counts as such a change).

Writes are atomic and durable (``repro.common.atomicio``: temp file,
``fsync``, ``os.replace`` in the same directory), so concurrent runner
processes may share one store -- both compute the same bits and
whichever finishes last wins with an identical payload -- and a kill
mid-save can never leave a torn entry.

Entries are *checksum-framed*: a magic prefix, the payload length, and
a SHA-256 over the pickle bytes precede the payload, so a torn write or
a flipped bit is detected before ``pickle`` ever parses hostile bytes.
Entries that fail the frame check -- or whose unpickling raises any of
the broad net of exceptions a corrupt pickle can produce -- are
*quarantined* under ``.colt-cache/quarantine/`` (never silently
unlinked) and recomputed; per-exception-class counters record what was
seen. Pre-framing entries (raw pickle, no magic) still load.

The store also holds *aged-kernel snapshots* (the pickled machine
after boot, aging and memhog; see :func:`repro.sim.scenario.aged_key`)
under ``aged/``, keyed by the same kind of content hash over the aged
key, in the same frame and with the same quarantine. They are kept
apart from results: ``len(store)`` and the hit/miss/save counters count
results only, and ``store.write`` faults index result writes only.

A store whose directory cannot be created (read-only filesystem,
path shadowed by a file) degrades to store-less operation with a
warning instead of failing the run: loads miss, saves are dropped.

The store location defaults to ``.colt-cache/`` in the working
directory; override with the ``COLT_RESULT_CACHE`` environment
variable, disable with ``--no-cache`` (CLI) or ``store=None``
(library). Clear it with :meth:`ResultStore.clear` or simply
``rm -rf .colt-cache``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.common import constants
from repro.common.atomicio import atomic_write_bytes
from repro.common.statistics import CounterSet
from repro.obs.logging import get_logger
from repro.obs.registry import bind_counterset, get_registry
from repro.obs.trace import current_tracer, obs_active
from repro.sim.faults import FaultPlan, corrupt_bytes
from repro.sim.system import SimulationConfig, SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scenario import AgedKey

_LOG = get_logger(__name__)

#: Environment variable naming the store directory.
STORE_ENV = "COLT_RESULT_CACHE"

#: Default store directory (relative to the working directory).
DEFAULT_STORE_DIR = ".colt-cache"

#: Subdirectory undecodable entries are moved into (never re-read).
QUARANTINE_DIR = "quarantine"

#: Subdirectory aged-kernel snapshots are stored in.
SNAPSHOT_DIR = "aged"

#: Bump on any behavioural change not captured by config or constants
#: (e.g. capture-record layout, walk-latency accounting).
STORE_VERSION = 1

#: Magic prefix of a checksum-framed entry (version byte included).
STORE_MAGIC = b"COLTRS1\n"

#: Frame header: magic + 8-byte big-endian payload length + SHA-256.
_HEADER_LEN = len(STORE_MAGIC) + 8 + 32

#: Everything a torn frame or hostile pickle payload is known to raise.
#: ``UnpicklingError``/``EOFError``/``AttributeError`` are the classic
#: truncation/stale-class cases; a malformed stream can also raise
#: ``ValueError``/``IndexError``/``TypeError``/``KeyError``, and a
#: pickle referencing a module that no longer exists raises
#: ``ImportError``. (``ValueError`` also covers this module's own
#: frame-check failures.)
_CORRUPT_EXCEPTIONS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ValueError,
    IndexError,
    ImportError,
    TypeError,
    KeyError,
)


def frame_payload(payload: bytes) -> bytes:
    """Wrap pickle bytes in the length + SHA-256 integrity frame."""
    return (
        STORE_MAGIC
        + len(payload).to_bytes(8, "big")
        + hashlib.sha256(payload).digest()
        + payload
    )


def unframe_payload(blob: bytes) -> bytes:
    """Verify and strip the integrity frame; raises ``ValueError``.

    Blobs without the magic prefix are returned unchanged (legacy
    pre-framing entries -- their only guard is the unpickler's own
    exception net).
    """
    if not blob.startswith(STORE_MAGIC):
        return blob
    if len(blob) < _HEADER_LEN:
        raise ValueError(
            f"torn store frame: {len(blob)} bytes, header needs "
            f"{_HEADER_LEN}"
        )
    magic_len = len(STORE_MAGIC)
    length = int.from_bytes(blob[magic_len:magic_len + 8], "big")
    digest = blob[magic_len + 8:_HEADER_LEN]
    payload = blob[_HEADER_LEN:]
    if len(payload) != length:
        raise ValueError(
            f"torn store frame: {len(payload)} of {length} payload bytes"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("store frame checksum mismatch")
    return payload


def _encode(value):
    """Canonical JSON-compatible encoding of a config value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded = {"__dataclass__": type(value).__name__}
        for field in dataclasses.fields(value):
            encoded[field.name] = _encode(getattr(value, field.name))
        return encoded
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")


def _constants_fingerprint() -> dict:
    """The architectural constants a result depends on, by name."""
    return {
        name: value
        for name, value in sorted(vars(constants).items())
        if name.isupper() and isinstance(value, (bool, int, float, str))
    }


def _content_key(name: str, value) -> str:
    payload = {
        "version": STORE_VERSION,
        name: _encode(value),
        "constants": _constants_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_key(config: SimulationConfig) -> str:
    """Stable content hash of a config + code-relevant constants."""
    return _content_key("config", config)


def snapshot_key(key: "AgedKey") -> str:
    """Stable content hash of an aged key + code-relevant constants."""
    return _content_key("aged", key)


def run_fingerprint(scale, experiment_ids: Sequence[str]) -> str:
    """Stable hash of what one experiment run's numbers depend on.

    Covers the scale preset, the experiment list and the architectural
    constants; every history record carries it, so two records with
    equal fingerprints ran the same inputs. The payload layout
    (including ``"version": 1``) is frozen: existing ``history.jsonl``
    records must keep comparing equal.
    """
    payload = {
        "version": 1,
        "scale": _encode(scale),
        "ids": list(experiment_ids),
        "constants": _constants_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory of pickled :class:`SimulationResult`s, content-addressed.

    Args:
        root: store directory (created on demand; an uncreatable root
            degrades the store to a warned no-op instead of raising).
        faults: optional :class:`FaultPlan` whose ``store.write`` specs
            corrupt entries as they are written (chaos testing);
            ``None`` corrupts nothing.
    """

    def __init__(self, root, faults: Optional[FaultPlan] = None) -> None:
        self.root = Path(root)
        self.counters = CounterSet(
            ["hits", "misses", "evictions", "saves", "quarantines",
             "save_errors", "io_errors"]
        )
        self._faults = faults
        self._write_index = 0
        self._disabled = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._disabled = True
            _LOG.warning(
                "result store disabled: cannot create %s (%s); "
                "continuing without a cache",
                self.root, exc,
            )
        self._tracer = current_tracer()
        if obs_active():
            bind_counterset(get_registry(), "colt_store", self.counters)

    @property
    def disabled(self) -> bool:
        """True when the store degraded to store-less operation."""
        return self._disabled

    @classmethod
    def from_env(cls, default: Optional[str] = DEFAULT_STORE_DIR,
                 faults: Optional[FaultPlan] = None,
                 ) -> Optional["ResultStore"]:
        """Store at ``$COLT_RESULT_CACHE``, else ``default``.

        ``COLT_RESULT_CACHE=`` (empty) or ``0`` disables the store, as
        does ``default=None`` when the variable is unset. A store root
        that cannot be created also yields ``None`` (store-less
        operation) rather than failing the experiment run.
        """
        location = os.environ.get(STORE_ENV)
        if location is not None:
            if location.strip() in ("", "0", "off", "none"):
                return None
            store = cls(location, faults=faults)
        elif default is None:
            return None
        else:
            store = cls(default, faults=faults)
        return None if store.disabled else store

    def _path(self, config: SimulationConfig) -> Path:
        return self.root / f"{config_key(config)}.pkl"

    def load(self, config: SimulationConfig) -> Optional[SimulationResult]:
        """Return the stored result for ``config``, or None."""
        if self._tracer is None:
            return self._load(config)
        with self._tracer.span("store.get", cat="store") as span_args:
            result = self._load(config)
            span_args["hit"] = result is not None
            return result

    def _load(self, config: SimulationConfig) -> Optional[SimulationResult]:
        if self._disabled:
            return None
        path = self._path(config)
        result = self._read(path)
        if result is None:
            self.counters.increment("misses")
            return None
        if not isinstance(result, SimulationResult) or result.config != config:
            # Decodable but stale/mismatched (e.g. a key collision or
            # hand-edited entry): evict outright, nothing to autopsy.
            _LOG.warning("dropping mismatched store entry %s", path.name)
            path.unlink(missing_ok=True)
            self.counters.increment("evictions")
            self.counters.increment("misses")
            return None
        self.counters.increment("hits")
        return result

    def _read(self, path: Path):
        """The unpickled entry at ``path``; None if absent or undecodable."""
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            _LOG.warning("store read failed for %s: %s", path.name, exc)
            self.counters.increment("io_errors")
            return None
        try:
            return pickle.loads(unframe_payload(blob))
        except _CORRUPT_EXCEPTIONS as exc:
            # A torn, corrupted or hostile entry: quarantine for
            # post-mortem (never silently unlink) and recompute.
            self._quarantine(path, exc)
            return None

    def _quarantine(self, path: Path, exc: BaseException) -> None:
        """Move an undecodable entry aside, tagged by exception class."""
        self.counters.increment("quarantines")
        self.counters.increment(f"corrupt_{type(exc).__name__.lower()}")
        quarantine = self.root / QUARANTINE_DIR
        try:
            quarantine.mkdir(exist_ok=True)
            os.replace(path, quarantine / path.name)
            _LOG.warning(
                "quarantined undecodable store entry %s -> %s/ (%s: %s)",
                path.name, QUARANTINE_DIR, type(exc).__name__, exc,
            )
        except OSError as move_exc:
            _LOG.warning(
                "dropping undecodable store entry %s "
                "(quarantine failed: %s; original error %s: %s)",
                path.name, move_exc, type(exc).__name__, exc,
            )
            path.unlink(missing_ok=True)

    def save(self, config: SimulationConfig, result: SimulationResult) -> None:
        """Persist ``result`` atomically (safe under concurrent writers)."""
        if self._tracer is None:
            self._save(config, result)
            return
        with self._tracer.span("store.put", cat="store"):
            self._save(config, result)

    def _save(self, config: SimulationConfig, result: SimulationResult) -> None:
        if self._disabled:
            return
        frame = frame_payload(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )
        index = self._write_index
        self._write_index += 1
        if self._faults is not None:
            kind = self._faults.corruption(index)
            if kind is not None:
                frame = corrupt_bytes(frame, kind)
        if self._write(self._path(config), frame):
            self.counters.increment("saves")

    def _write(self, path: Path, frame: bytes) -> bool:
        try:
            atomic_write_bytes(path, frame)
        except OSError as exc:
            # Disk full / permissions lost mid-run: degrade to a warned
            # dropped save, the in-process cache still has the entry.
            _LOG.warning("store save failed for %s: %s", path.name, exc)
            self.counters.increment("save_errors")
            return False
        return True

    def _snapshot_path(self, key: "AgedKey") -> Path:
        return self.root / SNAPSHOT_DIR / f"{snapshot_key(key)}.pkl"

    def load_snapshot(self, key: "AgedKey") -> Optional[bytes]:
        """The stored aged-kernel snapshot for ``key``, or None."""
        if self._disabled:
            return None
        path = self._snapshot_path(key)
        entry = self._read(path)
        if entry is None:
            return None
        if not (
            isinstance(entry, tuple)
            and len(entry) == 2
            and entry[0] == key
            and isinstance(entry[1], bytes)
        ):
            _LOG.warning("dropping mismatched snapshot %s", path.name)
            path.unlink(missing_ok=True)
            return None
        return entry[1]

    def save_snapshot(self, key: "AgedKey", snapshot: bytes) -> None:
        """Persist an aged-kernel snapshot atomically."""
        if self._disabled:
            return
        path = self._snapshot_path(key)
        try:
            path.parent.mkdir(exist_ok=True)
        except OSError as exc:
            _LOG.warning("store save failed for %s: %s", path.name, exc)
            self.counters.increment("save_errors")
            return
        self._write(
            path,
            frame_payload(
                pickle.dumps((key, snapshot), protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )

    def clear(self) -> int:
        """Delete every stored entry, snapshots and quarantine included.

        Returns the number of files removed from the root and the
        quarantine; like ``len(store)``, the count leaves ``aged/`` out.
        """
        if self._disabled:
            return 0
        removed = 0
        for directory in (self.root, self.root / QUARANTINE_DIR):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        snapshots = self.root / SNAPSHOT_DIR
        if snapshots.is_dir():
            for path in snapshots.glob("*.pkl"):
                path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        if self._disabled:
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))
