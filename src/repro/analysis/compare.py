"""Reference-vs-prediction error metrics (Fig. 10's accuracy claim) —
and sweep-vs-sweep comparison reports.

The sweep half turns two cached sweeps (as written by
``python -m repro.scenarios sweep … --label …``) into one diff table:
points are matched on the grid axes the two sweeps share, aggregated
over the axes they don't (seeds, platforms), and rendered as markdown
or JSON.  ``completed`` metrics (churn grids) aggregate into a
completion probability per matched row, which is how the §III-D
robustness numbers are read out.  With ``metric="makespan"`` the
``B/A`` column of a rejoin=0-vs-rejoin>0 diff is the survivors'
*makespan-degradation ratio*: completed-under-recovery runs pay for
failure detection, re-dispatch and recompute, and the ratio prices
that against the no-recovery baseline's completed runs.
"""

from __future__ import annotations

import html as _html
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .percentiles import finite_or_none, pct_key, percentile


def relative_error(predicted: float, reference: float) -> float:
    """Signed relative error (positive = over-prediction)."""
    if reference == 0:
        raise ValueError("reference time is zero")
    return (predicted - reference) / reference


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate accuracy over a series of (reference, predicted) pairs."""

    mape: float           # mean absolute percentage error
    max_abs_pct: float
    n_points: int

    def __str__(self) -> str:
        return (
            f"MAPE {self.mape * 100:.2f}% over {self.n_points} points "
            f"(worst {self.max_abs_pct * 100:.2f}%)"
        )


def accuracy(pairs: Sequence[Tuple[float, float]]) -> AccuracyReport:
    """``pairs`` holds (reference, predicted)."""
    if not pairs:
        raise ValueError("no data points")
    errors = [abs(relative_error(p, r)) for r, p in pairs]
    return AccuracyReport(
        mape=sum(errors) / len(errors),
        max_abs_pct=max(errors),
        n_points=len(errors),
    )


def series_accuracy(
    reference: Mapping, predicted: Mapping
) -> AccuracyReport:
    """Accuracy over the common keys of two result dictionaries."""
    keys = sorted(set(reference) & set(predicted))
    if not keys:
        raise ValueError("no common keys between reference and prediction")
    return accuracy([(reference[k], predicted[k]) for k in keys])


def speedup_series(times: Mapping[int, float]) -> Dict[int, float]:
    """Strong-scaling speedups relative to the smallest peer count."""
    if not times:
        return {}
    base = times[min(times)]
    return {n: base / t for n, t in times.items()}


# ---------------------------------------------------------------------------
# sweep-vs-sweep comparison
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"\[([^\]]*)\]$")


def parse_point_label(name: str) -> Dict[str, str]:
    """Grid assignments encoded in an expanded point name.

    ``expand_grid`` names points ``base[path=value,...]``; this
    recovers the ``{path: value}`` mapping (empty for unexpanded
    bases).
    """
    m = _LABEL_RE.search(name)
    if not m or not m.group(1):
        return {}
    out: Dict[str, str] = {}
    for part in m.group(1).split(","):
        path, eq, value = part.partition("=")
        if eq:
            out[path] = value
    return out


@dataclass
class SweepData:
    """One cached sweep: a label and its point results (plain dicts).

    ``points`` entries need ``name`` and ``result`` keys —
    the shape stored in sweep manifests.
    """

    label: str
    points: List[Dict[str, Any]]

    @classmethod
    def from_manifest(cls, payload: Mapping[str, Any]) -> "SweepData":
        return cls(label=payload["label"], points=list(payload["points"]))

    def axes(self) -> List[str]:
        """All grid paths appearing in this sweep's point names."""
        seen: Dict[str, None] = {}
        for point in self.points:
            for key in parse_point_label(point["name"]):
                seen.setdefault(key)
        return list(seen)


@dataclass
class ComparisonRow:
    """One matched key of a sweep diff (aggregates over unshared axes)."""

    key: Dict[str, str]
    n_a: int = 0
    n_b: int = 0
    mean_a: Optional[float] = None
    mean_b: Optional[float] = None
    completion_a: Optional[float] = None
    completion_b: Optional[float] = None
    #: Requested percentile columns (``compare --percentiles``):
    #: ``pct_key(p)`` → estimate over the same completed-point values
    #: the mean aggregates.  Empty when no percentiles were requested.
    pcts_a: Dict[str, Optional[float]] = field(default_factory=dict)
    pcts_b: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def delta(self) -> Optional[float]:
        if self.mean_a is None or self.mean_b is None:
            return None
        return self.mean_b - self.mean_a

    @property
    def ratio(self) -> Optional[float]:
        if not self.mean_a or self.mean_b is None:
            return None
        return self.mean_b / self.mean_a

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "key": self.key,
            "n_a": self.n_a, "n_b": self.n_b,
            "mean_a": self.mean_a, "mean_b": self.mean_b,
            "delta": self.delta, "ratio": self.ratio,
            "completion_a": self.completion_a,
            "completion_b": self.completion_b,
        }
        if self.pcts_a or self.pcts_b:
            out["pcts_a"] = self.pcts_a
            out["pcts_b"] = self.pcts_b
        return out


#: Metrics that are meaningful on non-completed points too (injected
#: crash counts and the recovery counters): these aggregate over every
#: ``ok`` point, not only the completed ones — a run that *failed
#: despite* three re-dispatches (or an election) is exactly the datum
#: to read.
CHURN_METRICS = frozenset(
    {"churn_failures", "rejoined_peers", "redispatched_subtasks",
     "coordinator_crashes", "elections", "handoff_latency"}
)

#: Fault-injection telemetry (what the injector did, and the
#: reliability hardening's response): meaningful on non-completed
#: points for the same reason — an unhardened run that deadlocked
#: *because of* 37 lost messages is the row that explains the
#: P(complete) contrast.  Aggregated over all ``ok`` points, exactly
#: like :data:`CHURN_METRICS`.
FAULT_METRICS = frozenset(
    {"messages_lost", "messages_duplicated", "messages_delayed",
     "partition_blocked", "reliable_retries", "reliable_abandoned",
     "duplicate_deliveries"}
)

#: Every metric that aggregates over all ``ok`` points (not only the
#: completed ones).
_ALL_OK_METRICS = CHURN_METRICS | FAULT_METRICS


def _aggregate(points: Sequence[Mapping[str, Any]], metric: str,
               percentiles: Sequence[float] = ()):
    """(n, mean metric over completed points, completion probability,
    percentile estimates).

    Hard failures (``ok: false`` — engine errors, non-churn scenario
    failures) are excluded from *both* aggregates: only ``ok`` points
    count, matching the runner's contract that an engine error is
    never a completion-probability datum.  Timing metrics average over
    completed points only (a timed-out run has no makespan);
    :data:`CHURN_METRICS` and :data:`FAULT_METRICS` average over all
    ``ok`` points.  Requested
    ``percentiles`` are estimated over the same value pool the mean
    aggregates, by the shared :func:`~repro.analysis.percentiles
    .percentile` estimator — so a sweep report's P99 is definitionally
    the P99 a ``repro.serve`` answer quotes for the same pool.
    """
    values: List[float] = []
    completed: List[float] = []
    for point in points:
        result = point["result"]
        if not result.get("ok", True):
            continue
        metrics = result.get("metrics", {})
        done = metrics.get("completed")
        if done is not None:
            completed.append(done)
        if done == 0.0 and metric not in _ALL_OK_METRICS:
            continue
        value = result.get(metric)
        if value is None:
            value = metrics.get(metric)
        if value is not None:
            values.append(value)
    mean = sum(values) / len(values) if values else None
    prob = sum(completed) / len(completed) if completed else None
    pcts = {
        pct_key(p): finite_or_none(percentile(values, p))
        for p in percentiles
    } if values and percentiles else {
        pct_key(p): None for p in percentiles
    }
    return len(points), mean, prob, pcts


def _sort_token(value: str):
    try:
        return (0, float(value))
    except ValueError:
        return (1, value)


def _canon(value: str) -> str:
    """Canonical form of a grid value so ``0``, ``0.0`` and ``0.00``
    match across sweeps that spelled the same number differently."""
    try:
        number = float(value)
    except ValueError:
        return value
    if not math.isfinite(number):
        return repr(number)  # inf/nan: no integer form
    if number == int(number):
        return str(int(number))
    return repr(number)


@dataclass
class SweepComparison:
    """The diff of two sweeps over their shared grid axes."""

    a: str
    b: str
    metric: str
    shared_axes: List[str]
    rows: List[ComparisonRow] = field(default_factory=list)
    #: Percentile columns the rows carry (``compare --percentiles``).
    percentiles: Tuple[float, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "a": self.a, "b": self.b, "metric": self.metric,
            "shared_axes": self.shared_axes,
            "rows": [row.to_dict() for row in self.rows],
        }
        if self.percentiles:
            out["percentiles"] = list(self.percentiles)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def _table(self) -> Tuple[List[str], List[List[str]]]:
        """The header and each row's cells, unescaped — the one table
        layout both :meth:`to_markdown` and :meth:`to_html` render."""
        show_completion = any(
            row.completion_a is not None or row.completion_b is not None
            for row in self.rows
        )
        header = ["key", "n A", "n B", f"{self.metric} A",
                  f"{self.metric} B", "Δ (B−A)", "B/A"]
        for p in self.percentiles:
            label = pct_key(p).upper()
            header += [f"{label} A", f"{label} B"]
        if show_completion:
            header += ["P(complete) A", "P(complete) B"]
        table = []
        for row in self.rows:
            key = ", ".join(
                f"{k}={v}" for k, v in row.key.items()
            ) or "(all)"
            cells = [
                key, str(row.n_a), str(row.n_b),
                _fmt(row.mean_a), _fmt(row.mean_b),
                _fmt(row.delta), _fmt(row.ratio),
            ]
            for p in self.percentiles:
                cells += [_fmt(row.pcts_a.get(pct_key(p))),
                          _fmt(row.pcts_b.get(pct_key(p)))]
            if show_completion:
                cells += [_fmt(row.completion_a), _fmt(row.completion_b)]
            table.append(cells)
        return header, table

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown report."""
        axes = ", ".join(self.shared_axes) or "(whole sweep)"
        lines = [
            f"# Sweep comparison: `{self.a}` vs `{self.b}`",
            "",
            f"- metric: `{self.metric}` "
            "(mean over completed points of each matched group)",
            f"- matched on: {axes}",
            f"- A = `{self.a}`, B = `{self.b}`",
            "",
        ]
        header, table = self._table()
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for cells in table:
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    #: ``to_html`` flags a row as a regression/improvement when its
    #: B/A ratio leaves this band (5% either way).
    HTML_RATIO_BAND = 0.05

    def to_html(
        self,
        worker_stats: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> str:
        """Self-contained static HTML regression report.

        One file, inline CSS, no scripts or external assets — safe to
        archive as a CI artifact or mail around.  Rows whose ``B/A``
        ratio exceeds ``1 + HTML_RATIO_BAND`` are highlighted as
        regressions (B slower/worse on an increasing metric), rows
        below ``1 - HTML_RATIO_BAND`` as improvements; rows missing
        from one side are flagged unmatched.

        ``worker_stats`` (rows shaped like
        :meth:`repro.fleet.telemetry.WorkerStat.to_dict`) appends a
        fleet-workers section: per-worker throughput with straggler
        rows shaded — how a slow machine on the shared mount shows up
        in the same artifact as the regression it caused.
        """
        esc = _html.escape
        header, table = self._table()
        body_rows: List[str] = []
        regressions = improvements = unmatched = 0
        for row, cells in zip(self.rows, table):
            if row.n_a == 0 or row.n_b == 0:
                cls, badge = "unmatched", "one side only"
                unmatched += 1
            elif row.ratio is not None and \
                    row.ratio > 1 + self.HTML_RATIO_BAND:
                cls, badge = "regression", f"+{(row.ratio - 1) * 100:.1f}%"
                regressions += 1
            elif row.ratio is not None and \
                    row.ratio < 1 - self.HTML_RATIO_BAND:
                cls, badge = "improvement", f"−{(1 - row.ratio) * 100:.1f}%"
                improvements += 1
            else:
                cls, badge = "", ""
            cells = [esc(c) for c in cells]
            if badge:
                # the B/A cell carries the regression badge
                cells[6] += f' <span class="badge">{esc(badge)}</span>'
            tds = "".join(
                f"<td>{c}</td>" if i == 0
                else f'<td class="num">{c}</td>'
                for i, c in enumerate(cells)
            )
            row_cls = f" class=\"{cls}\"" if cls else ""
            body_rows.append(f"<tr{row_cls}>{tds}</tr>")

        ths = "".join(f"<th>{esc(h)}</th>" for h in header)
        summary_bits = [f"{len(self.rows)} matched keys"]
        if regressions:
            summary_bits.append(f"{regressions} regression"
                                f"{'s' if regressions != 1 else ''}")
        if improvements:
            summary_bits.append(f"{improvements} improvement"
                                f"{'s' if improvements != 1 else ''}")
        if unmatched:
            summary_bits.append(f"{unmatched} unmatched")
        axes = ", ".join(self.shared_axes) or "(whole sweep)"
        pct_note = (" Percentile columns use the serve-tier estimator "
                    "over the same per-row pools the means aggregate."
                    if self.percentiles else "")
        workers_section = _worker_stats_section(worker_stats) \
            if worker_stats else ""
        return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Sweep comparison: {esc(self.a)} vs {esc(self.b)}</title>
<style>
 body {{ font: 14px/1.5 -apple-system, "Segoe UI", Roboto, sans-serif;
        margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
        color: #1c2733; }}
 h1 {{ font-size: 1.3rem; }}
 code {{ background: #f0f2f5; padding: .1em .3em; border-radius: 3px; }}
 p.meta {{ color: #5a6775; }}
 table {{ border-collapse: collapse; width: 100%; }}
 th, td {{ border: 1px solid #d7dde3; padding: .35em .6em;
          text-align: left; }}
 td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
 th {{ background: #f0f2f5; }}
 tr.regression td {{ background: #fdecea; }}
 tr.improvement td {{ background: #e9f7ef; }}
 tr.unmatched td {{ background: #fff8e1; color: #7a6a1f; }}
 tr.straggler td {{ background: #fdf1e6; color: #7a4a1f; }}
 h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
 .badge {{ font-size: .8em; border-radius: 3px; padding: 0 .35em;
          background: rgba(0,0,0,.08); white-space: nowrap; }}
 footer {{ margin-top: 1.5rem; color: #8a95a1; font-size: .85em; }}
</style>
</head>
<body>
<h1>Sweep comparison: <code>{esc(self.a)}</code> vs
 <code>{esc(self.b)}</code></h1>
<p class="meta">metric <code>{esc(self.metric)}</code>
 (mean over completed points of each matched group) ·
 matched on {esc(axes)} · A = <code>{esc(self.a)}</code>,
 B = <code>{esc(self.b)}</code></p>
<p class="meta">{esc(" · ".join(summary_bits))} · rows shaded when
 B/A leaves the ±{self.HTML_RATIO_BAND * 100:.0f}% band.{pct_note}</p>
<table>
<thead><tr>{ths}</tr></thead>
<tbody>
{chr(10).join(body_rows)}
</tbody>
</table>
{workers_section}<footer>Static report rendered by repro.analysis — no
 scripts, no external assets.</footer>
</body>
</html>
"""


def _worker_stats_section(
    worker_stats: Sequence[Mapping[str, Any]],
) -> str:
    """The fleet-workers/stragglers HTML block appended by
    :meth:`SweepComparison.to_html` (rows shaped like
    ``repro.fleet.telemetry.WorkerStat.to_dict``)."""
    esc = _html.escape
    header = ["worker", "points done", "pt/min", "mean s", "last s",
              "in flight", "point age s", "last beat s", "flags"]
    rows: List[str] = []
    stragglers = 0
    for stat in worker_stats:
        straggler = bool(stat.get("straggler"))
        stragglers += straggler
        point = stat.get("point")
        flags = "; ".join(str(r) for r in stat.get("reasons", ())) \
            if straggler else ""
        cells = [
            esc(str(stat.get("worker", "?"))),
            str(stat.get("points_done", 0)),
            _fmt(stat.get("points_per_min")),
            _fmt(stat.get("mean_latency")),
            _fmt(stat.get("last_latency")),
            "—" if point is None else esc(f"p{point}"),
            _fmt(stat.get("point_age")),
            _fmt(stat.get("beat_age")),
            esc(flags) or "",
        ]
        tds = "".join(
            f"<td>{c}</td>" if i in (0, 8) else f'<td class="num">{c}</td>'
            for i, c in enumerate(cells)
        )
        cls = ' class="straggler"' if straggler else ""
        rows.append(f"<tr{cls}>{tds}</tr>")
    ths = "".join(f"<th>{esc(h)}</th>" for h in header)
    note = (f"{stragglers} straggler{'s' if stragglers != 1 else ''} "
            f"flagged" if stragglers else "no stragglers flagged")
    return f"""<h2>Fleet workers</h2>
<p class="meta">per-worker throughput from the fleet's heartbeat
 telemetry · {esc(note)} · shaded rows fell below half the fleet-median
 rate or stalled past 3× their mean claim-to-done latency.</p>
<table>
<thead><tr>{ths}</tr></thead>
<tbody>
{chr(10).join(rows)}
</tbody>
</table>
"""


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if math.isnan(value):
        return "nan"
    return f"{value:.4g}"


@dataclass
class GapRow:
    """One aggregated cell of a prediction-gap report."""

    key: Dict[str, str]
    n: int = 0
    mean: Optional[float] = None
    completion: Optional[float] = None
    baseline_mean: Optional[float] = None

    @property
    def gap(self) -> Optional[float]:
        """``mean / baseline_mean`` — 1.0 means the policy matched the
        omniscient baseline; larger is worse."""
        if not self.baseline_mean or self.mean is None:
            return None
        return self.mean / self.baseline_mean

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key, "n": self.n, "mean": self.mean,
            "completion": self.completion,
            "baseline_mean": self.baseline_mean, "gap": self.gap,
        }


@dataclass
class GapReport:
    """Predicted-vs-oracle gap table over one sweep.

    Rows are the sweep's grid cells (aggregated over ``over`` axes);
    each row's ``gap`` divides its mean metric by the mean of the
    *baseline* policy's cell sharing the axes the baseline actually
    carries.  Axes the baseline never sweeps — the prediction-error
    axes, which only ``predicted`` points carry — broadcast: every
    error level of a cell divides by the same oracle mean, which is
    what makes gap-vs-level curves comparable.
    """

    label: str
    metric: str
    baseline: str
    axes: List[str]
    rows: List[GapRow] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label, "metric": self.metric,
            "baseline": self.baseline, "axes": self.axes,
            "rows": [row.to_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        show_completion = any(
            row.completion is not None for row in self.rows
        )
        lines = [
            f"# Prediction gap: `{self.label}`",
            "",
            f"- metric: `{self.metric}` "
            f"(mean over completed points of each cell)",
            f"- baseline: `{self.baseline}` "
            "(gap = cell mean / matching baseline mean)",
            f"- cells on: {', '.join(self.axes) or '(whole sweep)'}",
            "",
        ]
        header = ["key", "n", self.metric, f"{self.baseline} {self.metric}",
                  "gap"]
        if show_completion:
            header.append("P(complete)")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in self.rows:
            key = ", ".join(
                f"{k}={v}" for k, v in row.key.items() if v != ""
            ) or "(all)"
            cells = [key, str(row.n), _fmt(row.mean),
                     _fmt(row.baseline_mean), _fmt(row.gap)]
            if show_completion:
                cells.append(_fmt(row.completion))
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def prediction_gap(
    data: SweepData, metric: str = "makespan", *,
    policy_axis: str = "selection_policy", baseline: str = "oracle",
    over: Sequence[str] = ("seed",),
) -> GapReport:
    """The prediction-gap readout of one policy-ablation sweep.

    Cells group the sweep's points on every carried grid axis except
    the ``over`` ones (which aggregate, like :func:`compare_sweeps`);
    a point that doesn't carry an axis at all — the main policy sheet
    has no ``prediction_error.*`` labels — keys that axis as empty, so
    sheets of the same sweep land in distinct rows rather than mixing.
    Each cell is then divided by the ``baseline`` policy's cell that
    matches it on the axes baseline points themselves carry.

    The headline is monotonicity: aggregated over error kinds and
    seeds, ``predicted``'s gap to ``oracle`` must widen as
    ``prediction_error.level`` grows, while policies that never read a
    prediction (``random``) keep a level-independent gap.
    """
    axes = data.axes()
    if policy_axis not in axes:
        raise ValueError(
            f"sweep {data.label!r} has no {policy_axis!r} axis; "
            f"carried axes: {', '.join(axes) or '(none)'}"
        )
    unknown = [axis for axis in over if axis not in axes]
    if unknown:
        raise ValueError(
            f"--over axis {', '.join(repr(x) for x in unknown)} not in "
            f"sweep {data.label!r}; carried axes: {', '.join(axes)}"
        )
    row_axes = [axis for axis in axes if axis not in set(over)]

    groups: Dict[Tuple[str, ...], List[dict]] = {}
    labels: Dict[Tuple[str, ...], Dict[str, str]] = {}
    base_axes: set = set()
    for point in data.points:
        label = parse_point_label(point["name"])
        key = tuple(
            _canon(label[axis]) if axis in label else ""
            for axis in row_axes
        )
        groups.setdefault(key, []).append(point)
        labels.setdefault(key, dict(zip(row_axes, key)))
        if label.get(policy_axis) == baseline:
            base_axes.update(label)
    base_axes = {a for a in base_axes if a in row_axes and a != policy_axis}

    def base_key(cell: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted((a, cell.get(a, "")) for a in base_axes))

    base_means: Dict[Tuple[Tuple[str, str], ...], Optional[float]] = {}
    for key, points in groups.items():
        if labels[key].get(policy_axis) == baseline:
            _, mean, _, _ = _aggregate(points, metric)
            base_means[base_key(labels[key])] = mean

    rows = []
    for key in sorted(groups, key=lambda k: tuple(_sort_token(v)
                                                  for v in k)):
        cell = labels[key]
        n, mean, completion, _ = _aggregate(groups[key], metric)
        rows.append(GapRow(
            key=cell, n=n, mean=mean, completion=completion,
            baseline_mean=base_means.get(base_key(cell)),
        ))
    return GapReport(label=data.label, metric=metric, baseline=baseline,
                     axes=row_axes, rows=rows)


def compare_sweeps(
    a: SweepData, b: SweepData, metric: str = "t",
    over: Sequence[str] = (),
    percentiles: Sequence[float] = (),
) -> SweepComparison:
    """Diff two sweeps: match on shared grid axes, aggregate the rest.

    Points are keyed by the values of the axes appearing in *both*
    sweeps; each key's points aggregate to a mean ``metric`` (over
    completed points) and, when ``completed`` metrics are present, a
    completion probability.  Keys present in only one sweep still get
    a row — an axis swept on one side only shows up as unmatched.

    ``over`` drops axes from the shared set so their points aggregate
    instead of matching — ``over=("seed",)`` turns per-seed rows into
    seed-averaged completion probabilities and makespans, which is how
    the recovery grids read a survivors' makespan-degradation ratio
    out of mixed-outcome seed pools.  An ``over`` axis that neither
    sweep carries is an error (a typo would otherwise silently change
    nothing and the report would lie about what was aggregated).

    ``percentiles`` adds tail columns (``percentiles=(99,)`` → P99 A /
    P99 B) estimated by the shared serve-tier estimator over the same
    per-row value pools the means aggregate — a sweep report reads the
    tail the SLO daemon answers with, not just the mean.
    """
    for p in percentiles:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    axes_a, axes_b = a.axes(), b.axes()
    known = set(axes_a) | set(axes_b)
    unknown = [axis for axis in over if axis not in known]
    if unknown:
        raise ValueError(
            f"--over axis {', '.join(repr(x) for x in unknown)} not in "
            f"either sweep; axes of {a.label!r}: "
            f"{', '.join(axes_a) or '(none)'}; axes of {b.label!r}: "
            f"{', '.join(axes_b) or '(none)'}"
        )
    shared = [axis for axis in axes_a
              if axis in axes_b and axis not in set(over)]

    def group(sweep: SweepData) -> Dict[Tuple[str, ...], List[dict]]:
        out: Dict[Tuple[str, ...], List[dict]] = {}
        for point in sweep.points:
            label = parse_point_label(point["name"])
            key = tuple(_canon(label.get(axis, "")) for axis in shared)
            out.setdefault(key, []).append(point)
        return out

    groups_a, groups_b = group(a), group(b)
    keys = sorted(
        set(groups_a) | set(groups_b),
        key=lambda k: tuple(_sort_token(v) for v in k),
    )
    rows = []
    for key in keys:
        row = ComparisonRow(key=dict(zip(shared, key)))
        if key in groups_a:
            row.n_a, row.mean_a, row.completion_a, row.pcts_a = _aggregate(
                groups_a[key], metric, percentiles
            )
        if key in groups_b:
            row.n_b, row.mean_b, row.completion_b, row.pcts_b = _aggregate(
                groups_b[key], metric, percentiles
            )
        rows.append(row)
    return SweepComparison(a=a.label, b=b.label, metric=metric,
                           shared_axes=shared, rows=rows,
                           percentiles=tuple(percentiles))
