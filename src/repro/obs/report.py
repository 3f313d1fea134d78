"""Run reports: a study's event log rendered as markdown or JSON.

Answers "where did the time go?" for one durable study: worker-utilization
timeline, wave cadence, queue-wait and duration quantiles, speculation
efficacy, crash/retry budget consumption and per-region breakdowns — all
derived offline from :meth:`repro.core.eventlog.EventLog.replay`, so any
log a study ever wrote is reportable without re-running anything.

The report's ``counters`` block uses the exact instrument names the live
:class:`~repro.obs.metrics.MetricsRegistry` increments, so an offline
replay and a live registry of the same run agree field by field (guarded by
``tests/obs/test_report_roundtrip.py``).

Rendered by the CLI: ``python -m repro.obs report <eventlog>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.tracing import Span, spans_from_events

#: Quantiles reported for wait/duration distributions.
_QUANTILES = (0.50, 0.90, 0.99)


def _quantiles(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {}
    arr = np.asarray(values, dtype=np.float64)
    out = {"mean": float(arr.mean()), "max": float(arr.max())}
    for q in _QUANTILES:
        out[f"p{int(q * 100)}"] = float(np.quantile(arr, q))
    return out


@dataclass
class RunReport:
    """Aggregated view of one study's event log."""

    counters: Dict[str, float] = field(default_factory=dict)
    failures_by_fault: Dict[str, int] = field(default_factory=dict)
    queue_wait_hours: Dict[str, float] = field(default_factory=dict)
    duration_hours: Dict[str, float] = field(default_factory=dict)
    waves: Dict[str, float] = field(default_factory=dict)
    speculation: Dict[str, float] = field(default_factory=dict)
    retries: Dict[str, float] = field(default_factory=dict)
    regions: Dict[str, Dict[str, float]] = field(default_factory=dict)
    utilization: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    makespan_hours: float = 0.0
    n_workers: int = 0

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_events(cls, events: Sequence[Dict], n_bins: int = 24) -> "RunReport":
        """Build the report from a replayed event log."""
        report = cls()
        spans = spans_from_events(events)
        header = events[0] if events else {}
        if header.get("kind") == "open":
            report.provenance = {
                "git_sha": header.get("git_sha"),
                "generated_at": header.get("generated_at"),
                "version": header.get("version"),
            }

        kinds = [event.get("kind") for event in events]
        samples = [event for event in events if event.get("kind") == "sample"]
        report.counters = {
            "engine.items.submitted": float(kinds.count("submit")),
            "engine.items.retried": float(kinds.count("retry")),
            "engine.items.speculated": float(kinds.count("speculate")),
            "engine.items.completed": float(kinds.count("complete")),
            "engine.items.failed": float(kinds.count("fail")),
            "engine.items.cancelled": float(kinds.count("cancel")),
            "engine.samples.landed": float(len(samples)),
            "engine.samples.crashed": float(
                sum(1 for event in samples if event.get("crashed"))
            ),
            "engine.retries.exhausted": float(kinds.count("exhausted")),
        }
        for event in events:
            if event.get("kind") == "fail":
                fault = str(event.get("fault"))
                report.failures_by_fault[fault] = (
                    report.failures_by_fault.get(fault, 0) + 1
                )

        closed = [span for span in spans if span.end is not None]
        executed = [span for span in closed if span.outcome == "complete"]
        report.queue_wait_hours = _quantiles([span.wait_hours for span in closed])
        report.duration_hours = _quantiles(
            [span.duration_hours for span in executed if span.duration_hours]
        )

        finish_events = [e for e in events if e.get("kind") == "finish"]
        if finish_events:
            report.makespan_hours = float(finish_events[-1]["wall_clock_hours"])
        elif executed:
            report.makespan_hours = max(span.end for span in executed)  # type: ignore[type-var, arg-type]
        report._build_waves(events)
        report._build_speculation(events, closed)
        report._build_retries(events)
        report._build_regions(events, closed)
        report._build_utilization(closed, n_bins)
        return report

    def _build_waves(self, events: Sequence[Dict]) -> None:
        """Wave cadence: completions grouped by identical simulated instant."""
        instants = sorted(
            {float(e["t"]) for e in events if e.get("kind") == "complete"}
        )
        self.waves = {"n_waves": float(len(instants))}
        if len(instants) >= 2:
            gaps = np.diff(np.asarray(instants))
            self.waves.update(
                {
                    "mean_gap_hours": float(gaps.mean()),
                    "max_gap_hours": float(gaps.max()),
                }
            )

    def _build_speculation(self, events: Sequence[Dict], closed: List[Span]) -> None:
        launched = sum(1 for e in events if e.get("kind") == "speculate")
        if not launched:
            return
        speculative = [span for span in closed if span.kind == "speculative"]
        wins = sum(1 for span in speculative if span.outcome == "complete")
        self.speculation = {
            "n_duplicates": float(launched),
            "n_wins": float(wins),
            "n_losses": float(
                sum(1 for span in speculative if span.outcome == "cancel")
            ),
            "n_duplicate_failures": float(
                sum(1 for span in speculative if span.outcome == "fail")
            ),
            "win_rate": wins / launched,
        }

    def _build_retries(self, events: Sequence[Dict]) -> None:
        attempts = [
            int(e.get("attempt", 1)) for e in events if e.get("kind") == "retry"
        ]
        if not attempts:
            return
        self.retries = {
            "n_retries": float(len(attempts)),
            "max_attempt": float(max(attempts)),
            # Slots that ran out of retry budget; not ``samples.crashed``,
            # which also counts configurations that crash inside the SuT.
            "n_exhausted": self.counters["engine.retries.exhausted"],
        }

    def _build_regions(self, events: Sequence[Dict], closed: List[Span]) -> None:
        """Per-region submission counts and delivered busy hours."""
        region_of_item: Dict[int, str] = {}
        for event in events:
            if event.get("kind") in ("submit", "retry", "speculate"):
                region = event.get("region")
                if region is not None:
                    region_of_item[int(event["item"])] = str(region)
        if not region_of_item:
            return  # pre-observability log without region fields
        for region in sorted(set(region_of_item.values())):
            self.regions[region] = {"n_items": 0.0, "busy_hours": 0.0}
        for event in events:
            if event.get("kind") in ("submit", "retry", "speculate"):
                region = region_of_item.get(int(event["item"]))
                if region is not None:
                    self.regions[region]["n_items"] += 1
        for span in closed:
            region = region_of_item.get(span.item)
            if region is not None and span.duration_hours:
                self.regions[region]["busy_hours"] += span.duration_hours

    def _build_utilization(self, closed: List[Span], n_bins: int) -> None:
        """Worker-utilization timeline: busy fraction of the fleet per bin."""
        workers = {span.worker for span in closed}
        self.n_workers = len(workers)
        horizon = self.makespan_hours
        if not closed or horizon <= 0 or n_bins < 1:
            return
        edges = np.linspace(0.0, horizon, n_bins + 1)
        busy = np.zeros(n_bins, dtype=np.float64)
        for span in closed:
            lo = np.clip(span.start, 0.0, horizon)
            hi = np.clip(span.end, 0.0, horizon)
            overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
            busy += np.maximum(overlap, 0.0)
        bin_width = horizon / n_bins
        fractions = busy / (bin_width * max(self.n_workers, 1))
        self.utilization = {
            "bin_hours": bin_width,
            "busy_fraction": [round(float(f), 4) for f in fractions],
            "mean_busy_fraction": round(float(fractions.mean()), 4),
        }

    # -- rendering ------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "provenance": self.provenance,
            "makespan_hours": self.makespan_hours,
            "n_workers": self.n_workers,
            "counters": dict(sorted(self.counters.items())),
            "failures_by_fault": dict(sorted(self.failures_by_fault.items())),
            "queue_wait_hours": self.queue_wait_hours,
            "duration_hours": self.duration_hours,
            "waves": self.waves,
            "speculation": self.speculation,
            "retries": self.retries,
            "regions": self.regions,
            "utilization": self.utilization,
        }

    def to_markdown(self) -> str:
        """Human-readable study report (GitHub-flavoured markdown)."""
        lines: List[str] = ["# Study run report", ""]
        sha = self.provenance.get("git_sha")
        if sha:
            lines.append(
                f"Provenance: `{str(sha)[:12]}` at {self.provenance.get('generated_at')}"
            )
            lines.append("")
        lines.append(
            f"Makespan **{self.makespan_hours:.2f} simulated hours** across "
            f"**{self.n_workers} workers**."
        )
        lines.append("")

        lines.append("## Lifecycle counters")
        lines.append("")
        lines.append("| counter | value |")
        lines.append("| --- | ---: |")
        for name, value in sorted(self.counters.items()):
            lines.append(f"| `{name}` | {value:g} |")
        for fault, count in sorted(self.failures_by_fault.items()):
            lines.append(f"| `engine.failures{{fault={fault}}}` | {count} |")
        lines.append("")

        for title, stats in (
            ("Queue wait (hours)", self.queue_wait_hours),
            ("Run duration (hours)", self.duration_hours),
            ("Wave cadence", self.waves),
            ("Speculation efficacy", self.speculation),
            ("Crash/retry budget", self.retries),
        ):
            if not stats:
                continue
            lines.append(f"## {title}")
            lines.append("")
            lines.append("| statistic | value |")
            lines.append("| --- | ---: |")
            for key, value in stats.items():
                lines.append(f"| {key} | {value:.4g} |")
            lines.append("")

        if self.regions:
            lines.append("## Per-region breakdown")
            lines.append("")
            lines.append("| region | items | busy hours |")
            lines.append("| --- | ---: | ---: |")
            for region, stats in sorted(self.regions.items()):
                lines.append(
                    f"| {region} | {stats['n_items']:g} | {stats['busy_hours']:.2f} |"
                )
            lines.append("")

        if self.utilization:
            lines.append("## Worker-utilization timeline")
            lines.append("")
            fractions: List[float] = self.utilization["busy_fraction"]  # type: ignore[assignment]
            lines.append(
                f"Mean busy fraction {self.utilization['mean_busy_fraction']:.2%} "
                f"over {len(fractions)} bins of "
                f"{self.utilization['bin_hours']:.2f} h:"
            )
            lines.append("")
            bars = "".join(_spark(f) for f in fractions)
            lines.append(f"`{bars}`")
            lines.append("")
        return "\n".join(lines)


_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def _spark(fraction: float) -> str:
    """One sparkline character for a busy fraction in [0, 1]."""
    idx = int(round(min(max(fraction, 0.0), 1.0) * (len(_SPARK_LEVELS) - 1)))
    return _SPARK_LEVELS[idx]


def report_from_log(path: str, n_bins: int = 24) -> RunReport:
    """Replay an event log from disk and build its :class:`RunReport`."""
    from repro.core.eventlog import EventLog

    return RunReport.from_events(EventLog.replay(path), n_bins=n_bins)


__all__ = ["RunReport", "report_from_log"]
