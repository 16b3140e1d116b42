"""Per-phase profiling report over a recorded trace (``repro trace``).

Consumes the JSONL flavour written by ``repro run --trace`` (see
:mod:`repro.obs.export`) and renders, per job:

* a **phase breakdown** — every span name aggregated into calls, total
  seconds, mean/max, and share of the job's total span time.  This is
  the measured counterpart of the paper's Table 2 cost breakdown: the
  ``map.phase.*`` / ``reduce.phase.*`` rows split a strategy's runtime
  into the phases the paper attributes costs to, and the ``shared.*``
  rows expose the Anti-Combining-specific work (decode, Shared spills,
  run merges) that plain MapReduce does not have;
* an **attempt summary** from the event log — attempts started /
  failed per task kind and the CPU seconds burned by failed attempts
  (wasted work made visible).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.analysis.report import format_table
from repro.obs.trace import JobTrace


def phase_rows(job: JobTrace) -> list[dict[str, Any]]:
    """Aggregate the job's spans by name: calls, totals, share.

    A rollup span (a hot call site's per-task aggregate, see
    :meth:`~repro.obs.trace.Tracer.hot_span`) counts as its ``calls``
    with its own ``max_s``, so the rows match a per-call trace.
    """
    stats: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    for span in job.spans:
        entry = stats.get(span.name)
        if entry is None:
            entry = stats[span.name] = {
                "phase": span.name,
                "category": span.category,
                "calls": 0,
                "total_s": 0.0,
                "max_s": 0.0,
            }
            order.append(span.name)
        attrs = span.attrs
        if "calls" in attrs and "max_s" in attrs:
            entry["calls"] += attrs["calls"]
            longest = attrs["max_s"]
        else:
            entry["calls"] += 1
            longest = span.duration
        entry["total_s"] += span.duration
        entry["max_s"] = max(entry["max_s"], longest)
    rows = [stats[name] for name in order]
    grand_total = sum(row["total_s"] for row in rows)
    for row in rows:
        row["mean_s"] = row["total_s"] / row["calls"]
        row["share_%"] = (
            100.0 * row["total_s"] / grand_total if grand_total > 0 else 0.0
        )
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


def attempt_rows(job: JobTrace) -> list[dict[str, Any]]:
    """Started/failed attempt counts and wasted CPU, per task kind."""
    stats: dict[str, dict[str, Any]] = {}
    for event in job.events:
        kind = event.get("kind", "?")
        entry = stats.setdefault(
            kind,
            {"kind": kind, "started": 0, "failed": 0, "wasted_cpu_s": 0.0},
        )
        if event.get("event") == "start":
            entry["started"] += 1
        elif event.get("event") == "fail":
            entry["failed"] += 1
            entry["wasted_cpu_s"] += float(event.get("cpu_seconds", 0.0))
    return [stats[kind] for kind in sorted(stats)]


def render_job(job: JobTrace) -> str:
    """One job's phase breakdown + attempt summary as text."""
    lines = [f"== job: {job.job_name} =="]
    phases = phase_rows(job)
    if phases:
        headers = [
            "phase",
            "category",
            "calls",
            "total_s",
            "mean_s",
            "max_s",
            "share_%",
        ]
        lines.append(
            format_table(
                headers,
                [[row[header] for header in headers] for row in phases],
            )
        )
    else:
        lines.append("(no spans recorded)")
    attempts = attempt_rows(job)
    if attempts:
        lines.append("")
        headers = ["kind", "started", "failed", "wasted_cpu_s"]
        lines.append(
            format_table(
                headers,
                [[row[header] for header in headers] for row in attempts],
            )
        )
    return "\n".join(lines)


def render_trace_report(jobs: Sequence[JobTrace] | Iterable[JobTrace]) -> str:
    """The full ``repro trace`` report over every job in the file."""
    jobs = list(jobs)
    if not jobs:
        return "(empty trace: no jobs recorded)"
    return "\n\n".join(render_job(job) for job in jobs)
