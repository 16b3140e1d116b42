"""The persistent run ledger: content-addressed run directories.

Every recorded run (an experiment, a pipeline, a bench sweep) lives in
its own directory under the store root (``.repro/runs`` by default,
``REPRO_RUNS_DIR`` overrides)::

    .repro/runs/<run_id>/
        manifest.json   # what ran: kind, name, params, env, schema
        status.json     # running | completed | failed (+ error)
        entries.jsonl   # one row per recorded job / pipeline / suite
        events.jsonl    # per-attempt scheduler events, flat
        spans.jsonl     # phase spans in the `repro trace` JSONL shape
        counters.json   # deterministic run-total counter fold
        metrics.prom    # Prometheus text dump of the run registry

The run id is content-addressed: a UTC timestamp prefix (so a plain
directory sort is chronological) followed by a SHA-256 prefix of the
canonical manifest JSON.  ``entries``/``events``/``spans`` are written
*incrementally* by the flight recorder, so a run that dies mid-way
still leaves a usable post-mortem bundle; ``counters.json`` and
``metrics.prom`` land at finalisation.

Retention: :meth:`RunStore.prune` keeps the newest ``keep`` finished
runs (``REPRO_RUNS_KEEP`` overrides the default of 64) and never
touches a run that is still ``running``.  It reads only each run's
manifest and status, and skips a run whose either is unreadable.

Concurrency contract: many writers (processes or threads) may share
one store root.  Creation retries on directory collisions instead of
pre-checking, each job's JSONL rows land as one ``O_APPEND`` write per
artifact (so a crash can only tear the *final* line, which readers skip
and count), JSON documents are written to a temp file and atomically
renamed into place, and readers tolerate runs vanishing underneath them
(a concurrent ``prune``/``delete``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: File names inside one run directory.
MANIFEST_FILE = "manifest.json"
STATUS_FILE = "status.json"
ENTRIES_FILE = "entries.jsonl"
EVENTS_FILE = "events.jsonl"
SPANS_FILE = "spans.jsonl"
COUNTERS_FILE = "counters.json"
METRICS_FILE = "metrics.prom"

DEFAULT_ROOT = ".repro/runs"
ENV_ROOT = "REPRO_RUNS_DIR"
ENV_KEEP = "REPRO_RUNS_KEEP"
DEFAULT_KEEP = 64

#: Run statuses a ledger entry can carry.
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"


class RunStoreError(Exception):
    """A ledger lookup or write failed (unknown id, ambiguous prefix)."""


@dataclass(frozen=True)
class OpenRun:
    """Handle to a freshly created (still-running) run directory."""

    run_id: str
    path: Path


@dataclass
class RunRecord:
    """One recorded run, loaded back from its directory."""

    run_id: str
    path: Path
    manifest: dict
    status: dict
    entries: list[dict] = field(default_factory=list)
    #: The deterministic run-total counters, or ``None`` for a run that
    #: never finalised (hard crash mid-run).
    counters: dict | None = None

    @property
    def status_name(self) -> str:
        return self.status.get("status", RUNNING)

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "run")

    @property
    def name(self) -> str:
        return self.manifest.get("name", "")

    @property
    def started(self) -> float:
        return float(self.manifest.get("started_unix", 0.0))

    def summary(self) -> dict:
        """The compact JSON shape the ``/runs`` endpoint lists."""
        doc = {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "status": self.status_name,
            "started_unix": self.started,
            "entries": len(self.entries),
        }
        if "finished_unix" in self.status:
            doc["finished_unix"] = self.status["finished_unix"]
        if "error" in self.status:
            doc["error"] = self.status["error"]
        return doc

    def detail(self) -> dict:
        """The full JSON shape the ``/runs/<id>`` endpoint returns."""
        doc = self.summary()
        doc["manifest"] = self.manifest
        doc["counters"] = self.counters
        doc["entry_list"] = self.entries
        return doc

    def metrics_text(self) -> str | None:
        """The finalised Prometheus dump, or ``None`` if never written."""
        path = self.path / METRICS_FILE
        return path.read_text() if path.exists() else None


def _canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _read_json(path: Path, default: dict | None = None) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return dict(default or {})


def _write_json(path: Path, document: dict) -> None:
    """Write a JSON document atomically (temp file + rename).

    A plain ``write_text`` truncates first, so a crash (or a concurrent
    reader) mid-write observes a torn document; ``os.replace`` swaps
    the complete file in as one atomic step.
    """
    payload = json.dumps(document, indent=1, sort_keys=True) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(payload)
    os.replace(tmp, path)


def _read_jsonl(path: Path, on_torn_tail=None) -> list[dict]:
    """Read a JSONL artifact, tolerating a torn final line.

    Rows are appended as single ``O_APPEND`` writes, so a crash mid-
    append can only leave a partial *last* line.  Skipping (and
    counting, via ``on_torn_tail``) an undecodable tail keeps every
    complete row readable instead of poisoning the whole file; an
    undecodable line anywhere else is real corruption and still
    raises.
    """
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        return []
    rows: list[dict] = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            if index == last:
                if on_torn_tail is not None:
                    on_torn_tail(path)
                break
            raise
    return rows


class RunStore:
    """The on-disk ledger of recorded runs."""

    def __init__(
        self,
        root: str | Path | None = None,
        keep: int | None = None,
    ) -> None:
        if root is None:
            root = os.environ.get(ENV_ROOT) or DEFAULT_ROOT
        self.root = Path(root)
        if keep is None:
            raw = os.environ.get(ENV_KEEP, "").strip()
            if raw:
                try:
                    keep = int(raw)
                except ValueError as exc:
                    raise RunStoreError(
                        f"invalid {ENV_KEEP}={raw!r}: expected a "
                        "positive integer (runs to keep when pruning)"
                    ) from exc
            else:
                keep = DEFAULT_KEEP
        if keep < 1:
            raise RunStoreError("retention must keep at least one run")
        self.keep = keep
        #: Torn JSONL tails skipped by this store instance's reads — a
        #: crash mid-append leaves at most one partial final line per
        #: artifact; readers skip it and account for it here (the
        #: ``/metrics`` scrape surfaces the total).
        self.torn_tail_lines = 0

    # -- creation --------------------------------------------------------
    def create(self, manifest: dict) -> OpenRun:
        """Create a run directory for ``manifest``; status ``running``.

        The id is derived from the manifest content itself, so the same
        manifest bytes always name the same directory; a (timestamp +
        pid) collision bumps a ``sequence`` field and re-hashes.

        ``mkdir`` itself is the claim — no existence pre-check — so two
        processes racing on the same manifest cannot both pass a check
        and then collide; the loser catches ``FileExistsError`` and
        retries with the next sequence number.
        """
        manifest = dict(manifest)
        manifest.setdefault("started_unix", time.time())
        stamp = time.strftime(
            "%Y%m%dT%H%M%SZ", time.gmtime(manifest["started_unix"])
        )
        sequence = 0
        while True:
            if sequence:
                manifest["sequence"] = sequence
            digest = hashlib.sha256(
                _canonical_json(manifest).encode()
            ).hexdigest()
            run_id = f"{stamp}-{digest[:10]}"
            path = self.root / run_id
            try:
                path.mkdir(parents=True)
            except FileExistsError:
                sequence += 1
                continue
            break
        manifest["run_id"] = run_id
        _write_json(path / MANIFEST_FILE, manifest)
        self.write_status(run_id, {"status": RUNNING})
        return OpenRun(run_id=run_id, path=path)

    def append_row(self, run_id: str, file_name: str, row: dict) -> None:
        """Append one JSON row to a run's JSONL artifact."""
        self.append_rows(run_id, file_name, (row,))

    def append_rows(
        self, run_id: str, file_name: str, rows: Iterable[dict]
    ) -> None:
        """Append a batch of JSON rows to a run's JSONL artifact.

        The rows are pre-encoded and land as one write through an
        unbuffered ``O_APPEND`` handle, so concurrent appenders never
        interleave within a line and a crash can only tear the final
        line — which :func:`_read_jsonl` skips and counts on read.
        """
        data = "".join(json.dumps(row) + "\n" for row in rows).encode()
        if not data:
            return
        with (self.root / run_id / file_name).open(
            "ab", buffering=0
        ) as handle:
            view = memoryview(data)
            while view:
                view = view[handle.write(view) :]

    def write_status(self, run_id: str, status: dict) -> None:
        _write_json(self.root / run_id / STATUS_FILE, status)

    # -- lookup ----------------------------------------------------------
    def run_ids(self) -> list[str]:
        """Every recorded run id, oldest first."""
        if not self.root.exists():
            return []
        ids = [
            entry.name
            for entry in self.root.iterdir()
            if (entry / MANIFEST_FILE).exists()
        ]
        return sorted(ids)

    def resolve(self, prefix: str) -> str:
        """The unique run id starting with ``prefix`` (git-style)."""
        matches = [
            run_id
            for run_id in self.run_ids()
            if run_id.startswith(prefix)
        ]
        if not matches:
            raise RunStoreError(
                f"no run matching {prefix!r} under {self.root}"
            )
        if len(matches) > 1:
            raise RunStoreError(
                f"ambiguous run prefix {prefix!r}: "
                + ", ".join(matches)
            )
        return matches[0]

    def load(self, run_id: str) -> RunRecord:
        path = self.root / run_id
        manifest_path = path / MANIFEST_FILE
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            # Also covers the run vanishing (concurrent prune/delete)
            # between a listing and this load.
            raise RunStoreError(
                f"no run matching {run_id!r} under {self.root}"
            ) from None
        counters_doc = _read_json(path / COUNTERS_FILE)
        return RunRecord(
            run_id=run_id,
            path=path,
            manifest=manifest,
            status=_read_json(path / STATUS_FILE, {"status": RUNNING}),
            entries=_read_jsonl(path / ENTRIES_FILE, self._count_torn),
            counters=counters_doc.get("counters")
            if counters_doc
            else None,
        )

    def load_all(self) -> list[RunRecord]:
        """Every loadable run; one vanishing mid-iteration (a
        concurrent ``prune``/``delete``) is skipped, not raised."""
        records: list[RunRecord] = []
        for run_id in self.run_ids():
            try:
                records.append(self.load(run_id))
            except RunStoreError:
                continue
        return records

    def _count_torn(self, path: Path) -> None:
        self.torn_tail_lines += 1

    # -- retention -------------------------------------------------------
    def prune(self, keep: int | None = None) -> list[str]:
        """Delete the oldest finished runs beyond ``keep``; a run still
        marked ``running`` is never pruned.  Returns the ids removed."""
        keep = self.keep if keep is None else keep
        finished = sorted(
            key
            for key in map(self._finished_key, self.run_ids())
            if key is not None
        )
        removed: list[str] = []
        for _, run_id in finished[: max(len(finished) - keep, 0)]:
            # ignore_errors: a concurrent prune may be removing the
            # same run; losing that race is success, not failure.
            shutil.rmtree(self.root / run_id, ignore_errors=True)
            removed.append(run_id)
        return removed

    def _finished_key(self, run_id: str) -> tuple[float, str] | None:
        """``(started, run_id)`` of a finished run, read from its
        manifest and status only; ``None`` for a run still running,
        vanished underneath us, or with an unreadable manifest or
        status — pruning skips those rather than failing the
        ``finalize`` of an unrelated run."""
        path = self.root / run_id
        try:
            manifest = json.loads((path / MANIFEST_FILE).read_text())
            status = _read_json(path / STATUS_FILE, {"status": RUNNING})
        except (OSError, ValueError):
            return None
        if status.get("status", RUNNING) == RUNNING:
            return None
        return float(manifest.get("started_unix", 0.0)), run_id

    def delete(self, run_id: str) -> None:
        path = self.root / run_id
        if not (path / MANIFEST_FILE).exists():
            raise RunStoreError(
                f"no run matching {run_id!r} under {self.root}"
            )
        shutil.rmtree(path, ignore_errors=True)
