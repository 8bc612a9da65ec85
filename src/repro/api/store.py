"""Content-addressed on-disk result store: resumable, cross-process sweeps.

The store persists finished :class:`~repro.api.report.SolveReport`
payloads (as their ``to_dict()`` JSON) keyed by
``(solver, instance digest, params)``, where the digest is the canonical
SHA-256 of the instance (:meth:`repro.core.instance.Instance.digest`).
The key is itself content-addressed — the SHA-256 of the sorted-key
compact JSON of those three fields — so a record can only ever be looked
up by the exact work that produced it.

Layout: one append-only JSON-lines shard per writing store,

    <cache_dir>/results-<pid>-<token>.jsonl

each line ``{"key", "solver", "instance", "params", "report"}``.  Every
``put`` appends one line and flushes, so a killed sweep keeps every
completed record; a torn final line (the kill landed mid-write) is
skipped on load.  Readers load the union of all shards, which makes the
layout safe under the multiprocessing executor: concurrent workers never
share a shard file.

Records are deterministic per key, so duplicate keys across shards
normally carry identical records.  They can diverge only when solver
code changed between runs sharing a cache dir; loads then resolve the
conflict last-writer-wins, ordering shards by modification time (shard
names are unique per writing store, so a new run never appends to — and
never mtime-bumps — a shard left by an earlier one).  The one scenario
this cannot order correctly is two *concurrently live* writers
straddling a code change; don't share a cache dir across versions of
the solvers while a sweep is still running.

:class:`~repro.api.runner.Runner` consults the store per (cell, trial)
work item — simulations, the ART LP bound, and the binary-searched MRT
LP bound are each stored under their own pseudo-solver key — so an
interrupted sweep resumes where it stopped and repeated sweeps over the
same cells are served entirely from disk.  Stored solver reports have
their wall-clock ``timings`` stripped (the one nondeterministic field)
and their ``schedule`` dropped (it embeds a full instance copy the sweep
never reads back), so the store's content is a small, deterministic
function of the work: a resumed sweep's store is byte-identical (as a
set of lines) to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional

from repro.obs.metrics import record_store
from repro.obs.spans import span as _obs_span


def canonical_key(solver: str, instance_digest: str, params: dict) -> str:
    """Content address of one unit of work (hex SHA-256).

    ``params`` must be JSON-serializable; key ordering is normalized so
    logically equal parameter dicts address the same record.
    """
    payload = json.dumps(
        {"solver": solver, "instance": instance_digest, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _parse_entry(line: str) -> Optional[dict]:
    """Parse one shard line, or ``None`` for torn/garbled content.

    The single definition of line tolerance: entries must carry a
    ``key`` and a *dict* ``report`` (a null or non-dict report would
    crash every consumer — ``run_batch`` reads ``record["metrics"]``,
    the verifier reads ``record.get(...)`` — so it is garbage by
    definition).
    """
    line = line.strip()
    if not line:
        return None
    try:
        entry = json.loads(line)
        entry["key"]
        if not isinstance(entry["report"], dict):
            return None
    except (json.JSONDecodeError, KeyError, TypeError):
        # Torn tail line of a killed writer; every complete line
        # before it is still usable.
        return None
    return entry


def _sorted_shards(cache_dir: Path):
    """Shard files oldest-modified first (name-tiebroken)."""
    return sorted(
        cache_dir.glob("results-*.jsonl"),
        key=lambda p: (p.stat().st_mtime_ns, p.name),
    )


def _iter_shard_entries(cache_dir: Path):
    """Yield ``(shard_path, entry)`` for every complete shard line.

    The single definition of the store's read semantics: shards ordered
    oldest-modified first (name-tiebroken), torn/garbled lines skipped
    (:func:`_parse_entry`).  Everything that reads a store directory —
    :meth:`ResultStore._load`, :func:`live_records` (and through it the
    CLI verifier) — goes through here or :func:`_parse_entry`, so the
    ordering and tolerance can never diverge.
    """
    for shard in _sorted_shards(cache_dir):
        with open(shard, "r", encoding="utf-8") as fh:
            for line in fh:
                entry = _parse_entry(line)
                if entry is not None:
                    yield shard, entry


def live_records(cache_dir: "str | Path") -> Dict[str, dict]:
    """The store's last-writer-wins view, with provenance.

    Returns ``{key: {"solver", "instance", "params", "report",
    "shard"}}`` for every record a :class:`ResultStore` opened on
    ``cache_dir`` would actually serve — superseded duplicates resolve
    to the newest record, exactly as :meth:`ResultStore._load` does.
    The CLI ``verify --cache-dir`` replays this view.
    """
    live: Dict[str, dict] = {}
    for shard, entry in _iter_shard_entries(Path(cache_dir)):
        live[entry["key"]] = {
            "solver": entry.get("solver"),
            "instance": entry.get("instance"),
            "params": entry.get("params"),
            "report": entry["report"],
            "shard": shard.name,
        }
    return live


class ResultStore:
    """Append-only JSON-lines store of solve reports under ``cache_dir``.

    Parameters
    ----------
    cache_dir:
        Directory holding the shards (created if missing).
    read:
        When ``False`` (the ``--no-cache`` CLI semantics), ``get`` always
        misses so every result is recomputed; ``put`` still refreshes the
        store for future runs.

    Attributes
    ----------
    hits / misses:
        ``get`` outcome counters for diagnostics and tests.
    appends:
        Count of physical shard writes (each a single flushed
        ``write()``); a :meth:`put_many` batch is one append however
        many records it carries.
    """

    def __init__(self, cache_dir: "str | Path", read: bool = True):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.read_enabled = bool(read)
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self._index: Dict[str, dict] = {}
        self._offsets: Dict[str, int] = {}
        self._fh = None
        self._load()

    def _consume(self, shard: Path) -> int:
        """Index every complete line of ``shard`` past the consumed
        offset; returns the number of entries read.

        Only byte ranges ending at a newline are consumed, so a torn
        tail (a writer killed mid-line, or a line caught mid-append) is
        left for the next :meth:`refresh` to re-examine once — and only
        once — it has been completed.
        """
        start = self._offsets.get(shard.name, 0)
        try:
            with open(shard, "rb") as fh:
                fh.seek(start)
                data = fh.read()
        except OSError:
            return 0  # shard vanished between glob and open
        end = data.rfind(b"\n")
        if end < 0:
            return 0
        count = 0
        for raw in data[:end].split(b"\n"):
            entry = _parse_entry(raw.decode("utf-8", errors="replace"))
            if entry is not None:
                self._index[entry["key"]] = entry["report"]
                count += 1
        self._offsets[shard.name] = start + end + 1
        return count

    def _load(self) -> None:
        # Oldest-modified-first iteration means that, for a key stored
        # more than once (a --no-cache refresh after a solver change),
        # the most recently written record wins.
        for shard in _sorted_shards(self.cache_dir):
            self._consume(shard)

    def refresh(self) -> int:
        """Pick up records other writers appended since the last load.

        Incremental: each shard is tailed from the byte offset already
        consumed, so a long-lived reader (the solve service's broker)
        can poll a busy store cheaply — a refresh with nothing new costs
        one ``glob`` plus one ``stat``-and-``seek`` per shard.  New
        shard files (other processes joining the store) are picked up
        whole.  Returns the number of records read; this store's own
        writes are already indexed by :meth:`put`, so its own open shard
        is skipped rather than re-read.
        """
        own = Path(self._fh.name).name if self._fh is not None else None
        count = 0
        for shard in _sorted_shards(self.cache_dir):
            if shard.name == own:
                continue
            count += self._consume(shard)
        return count

    def lookup(self, key: str) -> Optional[dict]:
        """The indexed report for a precomputed :func:`canonical_key`.

        Unlike :meth:`get`, does not touch the hit/miss counters and
        ignores ``read_enabled`` — this is the poll primitive of the
        solve service's broker, which addresses work by key and polls
        until another process's worker lands the record.
        """
        return self._index.get(key)

    def __len__(self) -> int:
        return len(self._index)

    def get(
        self, solver: str, instance_digest: str, params: dict
    ) -> Optional[dict]:
        """The stored report dict for this work, or ``None`` on a miss."""
        if not self.read_enabled:
            return None
        with _obs_span("store_get"):
            report = self._index.get(
                canonical_key(solver, instance_digest, params)
            )
        if report is None:
            self.misses += 1
            record_store("misses")
        else:
            self.hits += 1
            record_store("hits")
        return report

    def _record_line(
        self, solver: str, instance_digest: str, params: dict, report: dict
    ) -> Optional[str]:
        """The shard line for this record, or ``None`` if the identical
        record is already indexed (content dedup).  Updates the index,
        so a duplicate later in the same :meth:`put_many` batch dedups
        against the earlier one."""
        key = canonical_key(solver, instance_digest, params)
        if self._index.get(key) == report:
            return None
        self._index[key] = report
        return json.dumps(
            {
                "key": key,
                "solver": solver,
                "instance": instance_digest,
                "params": params,
                "report": report,
            },
            sort_keys=True,
        ) + "\n"

    def _append(self, lines: "list[str]") -> None:
        """One physical shard append (single flushed write) of ``lines``."""
        with _obs_span("store_put", records=len(lines)):
            self._append_inner(lines)
        record_store("appends")
        record_store("puts", len(lines))

    def _append_inner(self, lines: "list[str]") -> None:
        if self._fh is None:
            # The random token makes the shard name unique per store, so
            # no writer ever appends to (and mtime-bumps) a shard left by
            # an earlier process — pid reuse cannot resurrect a stale
            # record past a newer refresh shard in _load's ordering.
            shard = (
                self.cache_dir
                / f"results-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
            )
            self._fh = open(shard, "a", encoding="utf-8")
        self._fh.write("".join(lines))
        self._fh.flush()
        self.appends += 1

    def put(
        self, solver: str, instance_digest: str, params: dict, report: dict
    ) -> None:
        """Persist ``report`` (a ``SolveReport.to_dict()`` payload).

        Dedup is by *content*: an identical record already present is not
        re-appended (repeated ``--no-cache`` runs don't grow shards), but
        a changed record for a known key — a recompute after a solver
        change — is appended and wins on future loads (last writer wins).
        """
        line = self._record_line(solver, instance_digest, params, report)
        if line is not None:
            self._append([line])

    def put_many(self, records) -> int:
        """Persist many ``(solver, instance_digest, params, report)``
        tuples as **one** physical shard append.

        The bulk sibling of :meth:`put` with identical semantics per
        record — content dedup, last-writer-wins on changed records —
        but a batch (a cell's worth of trials) costs a single flushed
        ``write()`` instead of one per record.  Returns the number of
        records actually appended (duplicates are skipped).
        """
        lines = []
        for solver, instance_digest, params, report in records:
            line = self._record_line(solver, instance_digest, params, report)
            if line is not None:
                lines.append(line)
        if lines:
            self._append(lines)
        return len(lines)

    def close(self) -> None:
        """Close this process's shard handle (records are already flushed)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: Most-recently-used stores kept open per process; older ones are
#: closed and evicted (reopening simply reloads the shards from disk).
OPEN_STORE_LIMIT = 8

_OPEN_STORES: "OrderedDict[tuple, ResultStore]" = OrderedDict()


def open_store(cache_dir: "str | Path", read: bool = True) -> ResultStore:
    """Per-process memoised :class:`ResultStore` for ``cache_dir``.

    Work items executed back-to-back in one process (serial runs, or one
    multiprocessing worker's share of a sweep) reuse a single store, so
    the shard index is loaded once.  Keyed by pid so fork-started workers
    do not inherit the parent's open shard handle.  At most
    ``OPEN_STORE_LIMIT`` stores stay open — least-recently-used ones are
    flushed-and-closed, so long-lived processes sweeping many cache
    directories do not accumulate file handles or indexes.
    """
    resolved = str(Path(cache_dir).resolve())
    key = (os.getpid(), resolved, bool(read))
    store = _OPEN_STORES.get(key)
    if store is None:
        if not read:
            # A read-disabled (--no-cache) store is about to refresh the
            # directory: drop any memoised read store so the *next* read
            # open reloads from disk and sees the refreshed records
            # instead of a stale pre-refresh index.
            stale = _OPEN_STORES.pop((os.getpid(), resolved, True), None)
            if stale is not None:
                stale.close()
        store = ResultStore(cache_dir, read=read)
        _OPEN_STORES[key] = store
    _OPEN_STORES.move_to_end(key)
    while len(_OPEN_STORES) > OPEN_STORE_LIMIT:
        _, evicted = _OPEN_STORES.popitem(last=False)
        evicted.close()
    return store


def close_open_stores() -> None:
    """Close and forget every memoised store of this process.

    The next :func:`open_store` reloads the shards from disk — use this
    to observe another process's (or a ``--no-cache`` refresh's) writes
    mid-process, or to make an in-process rerun a true disk round-trip
    in tests.
    """
    while _OPEN_STORES:
        _, store = _OPEN_STORES.popitem(last=False)
        store.close()
