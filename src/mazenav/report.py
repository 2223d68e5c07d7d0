"""report.txt and summary.csv from a record log, for the CLI to write.

A tally reads one outcome row per record; the accuracy summaries, the
per-provider fault histogram and the per-maze difficulty table are each one
grouping of those rows. Rows are keyed by provider name, so a log in which
one name holds two models is refused. ``csv`` is imported on first use.
This module imports nothing from ``runner``, which re-exports three of its
names for the benchmark.
"""

from __future__ import annotations

import io
from collections import Counter, defaultdict
from dataclasses import dataclass

from .scoring import MODE_EXECUTION, MetricsSummary, RunScore, summarize

SCENARIO_ORDER = ("few-shot", "one-shot", "zero-shot")  # report column order


class SpecError(ValueError):
    """A spec, corpus or record log that a run or a report refuses."""


@dataclass  # not frozen: a frozen __init__ makes a row about four times as slow
class _Outcome:
    """One record, as the report reads it."""

    provider: str
    model: str
    scenario: str
    maze_id: str
    score: RunScore  # in the report's mode
    fault: str  # execution-mode first-fault label


@dataclass(frozen=True)
class _Tally:
    mode: str
    rows: list[_Outcome]
    summaries: list[MetricsSummary]


def _group(rows: list[_Outcome], key) -> dict:
    groups = defaultdict(list)
    for row in rows:
        groups[key(row)].append(row)
    return groups


def _tally(records: list, mode: str | None) -> _Tally:
    """One outcome row per record, in ``mode`` (default: the single recorded
    mode), and the per provider x scenario summaries."""
    if not records:
        raise SpecError("empty record log")
    if mode is None:
        modes = {r.scoring_mode for r in records}
        if len(modes) > 1:
            raise SpecError(f"records mix scoring modes {sorted(modes)}; "
                            "pass an explicit mode")
        mode = modes.pop()
    rows, models = [], {}
    for record in records:
        # Two fields of the stored execution score are all the histogram needs.
        execution = record.scores[MODE_EXECUTION]
        fault = execution["first_fault"]
        label = fault[1] if fault else ("none" if execution["complete"] else "StoppedEarly")
        row = _Outcome(record.provider, record.model, record.scenario, record.maze_id,
                       record.score(mode), label)
        if models.setdefault(row.provider, row.model) != row.model:
            raise SpecError(f"records of provider {row.provider!r} mix models "
                            f"{models[row.provider]!r} and {row.model!r}")
        rows.append(row)
    summaries = [summarize(provider, scenario, [row.score for row in group])
                 for (provider, scenario), group
                 in _group(rows, lambda row: (row.provider, row.scenario)).items()]
    return _Tally(mode, rows, summaries)


def summaries_from(records: list, mode: str | None = None) -> list[MetricsSummary]:
    """Per provider x scenario summaries; ``mode`` overrides the recorded
    scoring mode (records hold scores for both)."""
    return _tally(records, mode).summaries


def _table(summaries: list[MetricsSummary], metric: str, title: str) -> list[str]:
    """One accuracy table, its rows sorted by the first scenario column, which
    its title names."""
    scenarios = [s for s in SCENARIO_ORDER if any(x.scenario == s for x in summaries)]
    scenarios += sorted({x.scenario for x in summaries} - set(scenarios))
    by_model: dict[str, dict[str, float]] = {}
    for s in summaries:
        by_model.setdefault(s.model, {})[s.scenario] = getattr(s, metric)
    rows = sorted(by_model.items(), key=lambda kv: kv[1].get(scenarios[0], -1.0))
    name_w = max([len("Model")] + [len(m) for m in by_model])
    head = "Model".ljust(name_w) + "".join(f"  {sc:>10}" for sc in scenarios)
    out = [f"{title} (sorted by {scenarios[0]} performance)", "-" * len(head), head]
    for model, cells in rows:
        line = model.ljust(name_w)
        for sc in scenarios:
            value = cells.get(sc)
            line += f"  {value:>10.1f}" if value is not None else f"  {'-':>10}"
        out.append(line)
    return out


def _report(tally: _Tally) -> str:
    lines = [f"Scoring mode: {tally.mode}", f"Records: {len(tally.rows)}", ""]
    for metric, title in (("complete_pct", "Complete Path Accuracy [%]"),
                          ("partial_pct", "Partial Path Accuracy [%]")):
        lines.extend(_table(tally.summaries, metric, title))
        lines.append("")

    lines.append("Fault histogram per model (execution scoring, first fault per run)")
    for provider, group in sorted(_group(tally.rows, lambda row: row.provider).items()):
        faults = Counter(row.fault for row in group)
        lines.append(f"  {provider}: " + ", ".join(f"{k}={v}" for k, v in sorted(faults.items())))
    lines.append("")

    lines.append(f"Per-maze difficulty (fraction of runs complete, {tally.mode} scoring)")
    for maze_id, group in sorted(_group(tally.rows, lambda row: row.maze_id).items()):
        solved = sum(row.score.complete for row in group)
        lines.append(f"  {maze_id}: {solved / len(group):.3f} (n={len(group)})")
    lines.append("")

    lines.append("Notes:")
    lines.append("  * Partial accuracy is normalized by the reference solution length.")
    lines.append("  * An unparseable line inside the instruction block ends the scored prefix.")
    lines.append("  * oracle-match requires the exact reference sequence; execution accepts")
    lines.append("    any faultless route that exits cleanly (strict exit heading unless")
    lines.append("    the experiment ran with lenient_exit).")
    lines.append("  * Provider failures after retry exhaustion score 0 and stay in n.")
    return "\n".join(lines) + "\n"


def _csv(summaries: list[MetricsSummary]) -> str:
    """CSV rows; a name holding a comma or quote is quoted, so it stays one field."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("model", "scenario", "n", "complete_pct", "partial_pct"))
    writer.writerows((s.model, s.scenario, s.n, f"{s.complete_pct:.1f}", f"{s.partial_pct:.1f}")
                     for s in summaries)
    return out.getvalue()


def report_text(records: list, mode: str | None = None) -> str:
    """Aligned-text report: both accuracy tables, fault histograms, and a
    per-maze difficulty table."""
    return _report(_tally(records, mode))


def summary_csv(records: list, mode: str | None = None) -> str:
    """Long-form CSV export of the per-group accuracy summaries."""
    return _csv(summaries_from(records, mode))


def render_reports(records: list, mode: str | None = None) -> tuple[str, str]:
    """report.txt and summary.csv, rendered from one tally."""
    tally = _tally(records, mode)
    return _report(tally), _csv(tally.summaries)
