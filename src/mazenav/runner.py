"""Experiment orchestration: providers x scenarios x test mazes.

Every trial appends one JSON record line to records.jsonl in the output
directory. Trials whose key (provider, model, scenario, maze, repeat) is
already present are skipped, so interrupted runs resume and finished runs
are idempotent. Before the first provider call, a run builds and hashes the
prompt of each scenario and test maze once, whatever the providers and
repeats, into one table that the resume check, the calls and the records
read. The resume check looks up each loaded record of the run's providers
and scenarios there and refuses a log that holds one made from another
prompt, for a maze the corpus lacks, or by another model under one of the
spec's provider names; it judges each record of a corpus maze again under
the spec's exit rule, unless another prompt made it, and refuses one that its
reply does not reproduce. Worker threads make only the provider calls; the
submitting thread judges each reply and writes its record, in planning
order, which keeps the log byte-stable regardless of scheduling. ``judge``,
the one path from a reply to its scores (the resume check and the CLI's
verify call it too), parses the reply, executes its scored prefix and scores
that execution in each mode. A missing or rejected credential (AuthError), a
request the provider refuses or a mock script that cannot be used
(RequestRejected), any other exception but a GatewayError, or an interrupt
cancels the calls still queued and propagates; the records written before
it stay.

The log is read once per run: the read reports where its whole lines end,
and the handle that appends cuts a torn last line or ends an unterminated
one. A record whose key fields have the wrong types is a corrupt line, so a
resume never pays for its trial again. ``run_records`` returns every record
of the log, the loaded ones and the new ones; ``run()`` returns their
summaries. The summaries, and the report.txt and summary.csv strings that
``render_reports`` returns to the CLI's eval, mock-eval and report (only the
CLI writes report files), render from one tally: a single walk over the
records that groups their scores in the report's mode and counts
execution-mode first faults per provider. Rows are keyed by provider name,
so a log in which one name holds two models is refused. A record whose
scoring mode is not one of ``MODES``, whose score in either mode lacks the
shape ``RunScore`` stores, whose response is not a string, or whose trace
poses are not [int, str] pairs, is a corrupt line too: the report could not
read it, nor the resume check judge it, and a trace is outside input too.

Every command imports this module, so the thread pool (with ``logging``) is
imported in ``run_records`` and ``csv`` in the CSV renderer, on first use.
"""

from __future__ import annotations

import io
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import gateway
from .corpus import load_corpus
from .gateway import (
    DEFAULT_SCENARIOS,
    AuthError,
    GatewayError,
    PromptCache,
    ProviderConfig,
    RequestRejected,
    Scenario,
    _check_types,
    build_messages,
    prompt_hash,
)
from .grid import Maze
from .instructions import ParsedResponse, instruction_to_dict, parse_response
from .scoring import MODES, MODE_EXECUTION, MODE_ORACLE, MetricsSummary, RunScore, score_run, summarize
from .simulator import ExecutionTrace, Fault, FaultKind, execute
from .solver import Solution, reference_solution

RECORDS_NAME = "records.jsonl"
SCENARIO_ORDER = ("few-shot", "one-shot", "zero-shot")  # report column order


class SpecError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    corpus_dir: Path
    output_dir: Path
    providers: list[ProviderConfig]
    scenarios: list[Scenario] = field(default_factory=lambda: list(DEFAULT_SCENARIOS))
    scoring_mode: str = MODE_ORACLE
    concurrency: int = 1
    experiment_id: str = "exp"
    repeats: int = 1
    lenient_exit: bool = False

    def __post_init__(self) -> None:
        if not self.providers:
            raise SpecError("at least one provider is required")
        if not self.scenarios:
            raise SpecError("at least one scenario is required")
        _check_types(self, "a string", str, "scoring_mode", "experiment_id")
        _check_types(self, "an integer", int, "concurrency", "repeats")
        _check_types(self, "a boolean", bool, "lenient_exit")
        if self.scoring_mode not in MODES:
            raise SpecError(f"scoring_mode must be one of {MODES}")
        if self.concurrency < 1:
            raise SpecError("concurrency must be >= 1")
        if self.repeats < 1:
            raise SpecError("repeats must be >= 1")
        # Tallies, report rows, rate caps, shots and prompt prefixes are keyed by name.
        for kind, items in (("provider", self.providers), ("scenario", self.scenarios)):
            names = [item.name for item in items]
            if len(set(names)) < len(names):
                raise SpecError(f"duplicate {kind} names in {names}")


def load_spec(path) -> ExperimentSpec:
    """Read the declarative experiment config (JSON). Keys other than the
    corpus and output go to ExperimentSpec, the providers and the scenarios
    as their configs and the rest as they are, so it holds the defaults
    (scenarios only when the key is absent) and checks the types, and an
    unknown key is refused; the experiment id defaults to the file's stem.
    The corpus, the output and a relative ``mock:`` script path resolve
    against the spec's directory."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise SpecError(f"cannot read spec {path}: {err}")
    try:
        rest = {"experiment_id": path.stem, **data}
        base = path.parent
        rest["providers"] = [_resolve_mock(ProviderConfig(**p), base) for p in rest["providers"]]
        if "scenarios" in rest:
            rest["scenarios"] = [Scenario(**s) for s in rest["scenarios"]]
        return ExperimentSpec(
            corpus_dir=(base / rest.pop("corpus")).resolve(),
            output_dir=(base / rest.pop("output")).resolve(),
            **rest,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SpecError(f"invalid spec {path}: {err}")


def _resolve_mock(cfg: ProviderConfig, base: Path) -> ProviderConfig:
    script = cfg.endpoint[len("mock:"):]
    if not cfg.endpoint.startswith("mock:") or Path(script).is_absolute():
        return cfg
    return replace(cfg, endpoint=f"mock:{(base / script).resolve()}")


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    provider: str
    model: str
    scenario: str
    maze_id: str
    repeat: int
    prompt_hash: str
    response: str
    instructions: list
    rejected: list
    trace: dict
    scores: dict  # mode -> RunScore dict
    scoring_mode: str
    tokens_in: int
    tokens_out: int
    latency_ms: float
    attempts: int
    ts: float

    def key(self) -> tuple:
        return (self.provider, self.model, self.scenario, self.maze_id, self.repeat)

    def score(self, mode: str) -> RunScore:
        return RunScore.from_dict(self.scores[mode])

    def to_json_line(self) -> str:
        # The field values are plain JSON data already, so the instance dict
        # is dumped as it is, with no deep copy.
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "RunRecord":
        record = cls(**json.loads(line))
        # The key fields must have their own types, or a resume would miss the
        # record and pay for its trial again, and the report could not sort it.
        if not all(isinstance(getattr(record, f), str)
                   for f in ("provider", "model", "scenario", "maze_id")):
            raise ValueError("provider, model, scenario and maze_id must be strings")
        if type(record.repeat) is not int:
            raise ValueError("repeat must be an integer")
        if not isinstance(record.response, str):
            raise ValueError("response must be a string")
        # The report reads the scores in the recorded mode, or any other.
        if record.scoring_mode not in MODES:
            raise ValueError(f"scoring_mode must be one of {', '.join(MODES)}")
        if not isinstance(record.scores, dict) or not all(
                RunScore.is_stored(record.scores.get(mode)) for mode in MODES):
            raise ValueError(f"scores must hold a score for each of {', '.join(MODES)}: a bool "
                             "complete, a number partial, a null or [int, str] first_fault "
                             "and a string mode")
        # Outside input: the poses must have the shape ExecutionTrace.to_dict writes.
        poses = record.trace.get("poses") if isinstance(record.trace, dict) else None
        if not isinstance(poses, list) or not all(
                isinstance(p, list) and len(p) == 2 and type(p[0]) is int and isinstance(p[1], str)
                for p in poses):
            raise ValueError("trace must hold poses, a list of [int, str] pairs")
        return record


def shots_for(scenario: Scenario, shot_entries: list) -> list:
    """Shot mazes for a scenario; the first shot maze is reserved for
    one-shot, few-shot draws from the rest (disjoint example sets)."""
    if scenario.k == 0:
        return []
    pool = shot_entries[1:] if scenario.name == "few-shot" else shot_entries
    if len(pool) < scenario.k:
        need = scenario.k + (1 if scenario.name == "few-shot" else 0)
        raise SpecError(
            f"{scenario.name} needs {need} shot mazes in the corpus, "
            f"got {len(shot_entries)}"
        )
    return pool[: scenario.k]


def check_corpus_size(spec: ExperimentSpec, n_test: int, n_shot: int) -> None:
    """Raise SpecError unless a corpus of n_test test and n_shot shot mazes
    can run every scenario of the spec."""
    if n_test < 0 or n_shot < 0:
        raise SpecError("corpus sizes must be non-negative")
    if n_test < 1:
        raise SpecError("corpus has no test mazes")
    for scenario in spec.scenarios:
        shots_for(scenario, [None] * n_shot)


def _load_records(path: Path) -> tuple[list[RunRecord], int, bool]:
    """The records of the log, the byte offset where its whole lines end, and
    whether the last of them lacks its newline. A last line that a crash tore
    mid-write is skipped, so its trial reruns; only run_records edits the
    file, through the handle it appends with."""
    if not path.exists():
        return [], 0, False
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    records = []
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            records.append(RunRecord.from_json_line(line.decode("utf-8")))
        except (ValueError, TypeError) as err:
            if i == len(lines) - 1:
                return records, len(raw) - len(line), False
            raise SpecError(f"corrupt record log {path} at line {i + 1}: {err}")
    return records, len(raw), bool(lines[-1])


def load_records(path) -> list[RunRecord]:
    records = _load_records(Path(path))[0]
    if not records:
        raise SpecError(f"no records in {path}")
    return records


def judge(maze: Maze, text: str, reference: Solution,
          lenient_exit: bool) -> tuple[ParsedResponse, ExecutionTrace, dict[str, RunScore]]:
    """The parsed reply, the execution of its scored prefix, and its score in
    each mode: the one path from a reply's text to its scores."""
    parsed = parse_response(text)
    trace = execute(maze, parsed.scored_prefix()[0], lenient_exit=lenient_exit)
    return parsed, trace, {mode: score_run(maze, parsed, mode, reference=reference,
                                           lenient_exit=lenient_exit, trace=trace)
                           for mode in MODES}


def _judged(maze: Maze, reference: Solution, lenient_exit: bool, text: str,
            error: str | None) -> dict:
    """The fields of a record that its reply decides, as trials write them: the
    reply judged, or, for a failed call whose detail is ``error``, an empty
    reply that scores 0 in every mode and stays in n."""
    if error is None:
        parsed, trace, scores = judge(maze, text, reference, lenient_exit)
    else:
        text, fault = "", FaultKind.PROVIDER_ERROR
        parsed = ParsedResponse((), (), 0)
        trace = ExecutionTrace((), 0, Fault(fault, error))
        scores = {mode: RunScore(False, 0.0, (0, fault.value), mode) for mode in MODES}
    return dict(response=text,
                instructions=[instruction_to_dict(i) for i in parsed.instructions],
                rejected=[[r.line_no, r.text, r.reason] for r in parsed.rejected_lines],
                trace=trace.to_dict(),
                scores={mode: score.to_dict() for mode, score in scores.items()})


def _run_trial(spec: ExperimentSpec, provider: ProviderConfig, scenario: Scenario, maze_id: str,
               maze: Maze, digest: str, reference: Solution, repeat: int, call: Future,
               clock) -> RunRecord:
    """Wait for the trial's provider call, then judge its reply, or its
    failure, into the record; ``digest`` is the prompt's hash. A missing or
    rejected credential, a request the provider refuses, or a mock script
    that cannot be used stops the run instead."""
    try:
        completion, error = call.result(), None
    except (AuthError, RequestRejected):
        raise
    except GatewayError as err:
        completion, error = gateway.Completion("", 0, 0, 0.0, 0), str(err)
    return RunRecord(
        experiment=spec.experiment_id,
        provider=provider.name,
        model=provider.model,
        scenario=scenario.name,
        maze_id=maze_id,
        repeat=repeat,
        prompt_hash=digest,
        **_judged(maze, reference, spec.lenient_exit, completion.text, error),
        scoring_mode=spec.scoring_mode,
        tokens_in=completion.tokens_in,
        tokens_out=completion.tokens_out,
        latency_ms=completion.latency_ms,
        attempts=completion.attempts,
        ts=clock(),
    )


def _differs(record: RunRecord, maze: Maze, reference: Solution, lenient_exit: bool) -> str | None:
    """The first field of ``record`` that judging its reply again under
    ``lenient_exit`` does not reproduce, or None. A record whose trace holds a
    failed call is rebuilt as one, from the detail it stores."""
    fault = record.trace.get("fault")
    error = (str(fault.get("detail")) if isinstance(fault, dict)
             and fault.get("kind") == FaultKind.PROVIDER_ERROR.value else None)
    fields = _judged(maze, reference, lenient_exit, record.response, error)
    return next((name for name, value in fields.items() if getattr(record, name) != value), None)


def _check_resumed(spec, records, prompts, tests, log_path) -> None:
    """Refuse to resume a log whose records of this spec's providers and
    scenarios were made from other prompts (another corpus, shots or system
    prompt), or that holds a record of one of its provider names made by
    another model. ``prompts`` maps (scenario, maze_id) to the run's
    (messages, hash), and ``tests`` maze_id to (Maze, reference). Every
    provider's record of a test maze that no other prompt made must be what
    judging its reply under the spec's exit rule writes, as the report
    compares them in one table."""
    models = {p.name: p.model for p in spec.providers}
    scenarios = {sc.name for sc in spec.scenarios}
    for record in records:
        model = models.get(record.provider, record.model)
        prompt = prompts.get((record.scenario, record.maze_id))
        ours = record.scenario in scenarios and record.provider in models
        stale = prompt is not None and prompt[1] != record.prompt_hash
        test = tests.get(record.maze_id)
        if record.model != model:
            problem = f"is for model {record.model!r}, not {model!r}"
        elif ours and prompt is None:
            problem = f"is for maze {record.maze_id!r}, which the corpus does not hold"
        elif ours and stale:
            problem = "was made from another prompt"
        elif test is None or stale or not (differs := _differs(record, *test, spec.lenient_exit)):
            continue
        elif _differs(record, *test, not spec.lenient_exit) is None:
            problem = (f"was scored with lenient_exit {json.dumps(not spec.lenient_exit)}, "
                       f"not {json.dumps(spec.lenient_exit)}")
        else:
            problem = f"does not match its reply ({differs} differs)"
        raise SpecError(f"record {record.key()} in {log_path} {problem}; "
                        "use a fresh output directory")


def run(spec: ExperimentSpec, *, clock=time.time) -> list[MetricsSummary]:
    """Summaries of run_records(spec), the full record log, in the spec's mode."""
    return summaries_from(run_records(spec, clock=clock), spec.scoring_mode)


def run_records(spec: ExperimentSpec, *, clock=time.time) -> list[RunRecord]:
    """Execute all missing trials, append their records, return every record
    of the log: the ones loaded, then the ones written, in log order."""
    from concurrent.futures import ThreadPoolExecutor

    corpus = load_corpus(spec.corpus_dir)
    check_corpus_size(spec, len(corpus.tests), len(corpus.shots))
    shot_solutions = [(maze, reference_solution(maze)) for _, maze in corpus.shots]
    # Every prompt is built and hashed here, once per scenario and test maze,
    # before the first provider call is paid for.
    cache, prompts = PromptCache(), {}
    for scenario in spec.scenarios:
        shots = shots_for(scenario, shot_solutions)
        for maze_id, maze in corpus.tests:
            messages = build_messages(maze, shots, scenario, cache=cache)
            prompts[scenario.name, maze_id] = messages, prompt_hash(messages)

    spec.output_dir.mkdir(parents=True, exist_ok=True)
    log_path = spec.output_dir / RECORDS_NAME
    records, whole, unterminated = _load_records(log_path)
    tests = {maze_id: (maze, reference_solution(maze)) for maze_id, maze in corpus.tests}
    _check_resumed(spec, records, prompts, tests, log_path)
    existing = {record.key() for record in records}
    planned = [
        (provider, scenario, maze_id, maze, repeat)
        for provider in spec.providers
        for scenario in spec.scenarios
        for maze_id, maze in corpus.tests
        for repeat in range(spec.repeats)
        if (provider.name, provider.model, scenario.name, maze_id, repeat) not in existing
    ]

    with open(log_path, "a", encoding="utf-8") as log, ThreadPoolExecutor(
        max_workers=spec.concurrency
    ) as pool:
        # The log ends where its whole lines end: a torn last line is cut, and
        # a whole one without its newline gets it.
        if unterminated:
            log.write("\n")
        elif log.tell() > whole:
            log.truncate(whole)
        # Workers make only the provider call; this thread does the rest.
        calls = [
            pool.submit(gateway.complete, provider, prompts[scenario.name, maze_id][0],
                        trial_key=f"{maze_id}|{scenario.name}")
            for provider, scenario, maze_id, _, _ in planned
        ]
        try:
            for (provider, scenario, maze_id, maze, repeat), call in zip(planned, calls):
                record = _run_trial(spec, provider, scenario, maze_id, maze,
                                    prompts[scenario.name, maze_id][1], tests[maze_id][1],
                                    repeat, call, clock)
                log.write(record.to_json_line() + "\n")
                log.flush()
                records.append(record)
        except BaseException:
            # Spend no more provider calls on a run that has failed; leaving
            # the block still waits for the calls already running.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return records


@dataclass(frozen=True)
class _Tally:
    """What every report section needs, gathered in one walk over the records."""

    mode: str
    records: int
    summaries: list[MetricsSummary]
    faults: dict[str, Counter]  # provider -> first-fault label -> runs (execution)
    solved: dict[str, list[bool]]  # maze_id -> completion per run (``mode``)


def _tally(records: list[RunRecord], mode: str | None) -> _Tally:
    """Decode every record's score once, in ``mode`` (default: the single
    recorded mode); the fault histogram reads the stored execution score."""
    if not records:
        raise SpecError("empty record log")
    if mode is None:
        modes = {r.scoring_mode for r in records}
        if len(modes) > 1:
            raise SpecError(
                f"records mix scoring modes {sorted(modes)}; pass an explicit mode"
            )
        mode = modes.pop()
    groups: dict[tuple[str, str], list[RunScore]] = defaultdict(list)
    faults: dict[str, Counter] = defaultdict(Counter)
    solved: dict[str, list[bool]] = defaultdict(list)
    models: dict[str, str] = {}
    for record in records:
        if models.setdefault(record.provider, record.model) != record.model:
            raise SpecError(f"records of provider {record.provider!r} mix models "
                            f"{models[record.provider]!r} and {record.model!r}")
        score = record.score(mode)
        groups[record.provider, record.scenario].append(score)
        solved[record.maze_id].append(score.complete)
        # Two fields of the stored execution score are all the histogram needs.
        execution = record.scores[MODE_EXECUTION]
        fault = execution["first_fault"]
        label = fault[1] if fault else ("none" if execution["complete"] else "StoppedEarly")
        faults[record.provider][label] += 1
    summaries = [summarize(model, scenario, group) for (model, scenario), group in groups.items()]
    return _Tally(mode, len(records), summaries, faults, solved)


def summaries_from(records: list[RunRecord], mode: str | None = None) -> list[MetricsSummary]:
    """Per provider x scenario summaries; ``mode`` overrides the recorded
    scoring mode (records hold scores for both)."""
    return _tally(records, mode).summaries


def _table(summaries: list[MetricsSummary], metric: str, title: str) -> list[str]:
    scenarios = [s for s in SCENARIO_ORDER if any(x.scenario == s for x in summaries)]
    scenarios += sorted({x.scenario for x in summaries} - set(scenarios))
    by_model: dict[str, dict[str, float]] = {}
    for s in summaries:
        by_model.setdefault(s.model, {})[s.scenario] = getattr(s, metric)
    sort_col = scenarios[0] if scenarios else ""
    rows = sorted(by_model.items(), key=lambda kv: kv[1].get(sort_col, -1.0))
    name_w = max([len("Model")] + [len(m) for m in by_model])
    head = "Model".ljust(name_w) + "".join(f"  {sc:>10}" for sc in scenarios)
    out = [title, "-" * len(head), head]
    for model, cells in rows:
        line = model.ljust(name_w)
        for sc in scenarios:
            value = cells.get(sc)
            line += f"  {value:>10.1f}" if value is not None else f"  {'-':>10}"
        out.append(line)
    return out


def _report(tally: _Tally) -> str:
    lines = [f"Scoring mode: {tally.mode}", f"Records: {tally.records}", ""]
    for metric, title in (
        ("complete_pct", "Complete Path Accuracy [%] (sorted by few-shot performance)"),
        ("partial_pct", "Partial Path Accuracy [%] (sorted by few-shot performance)"),
    ):
        lines.extend(_table(tally.summaries, metric, title))
        lines.append("")

    lines.append("Fault histogram per model (execution scoring, first fault per run)")
    for model in sorted(tally.faults):
        parts = ", ".join(f"{k}={v}" for k, v in sorted(tally.faults[model].items()))
        lines.append(f"  {model}: {parts}")
    lines.append("")

    lines.append(f"Per-maze difficulty (fraction of runs complete, {tally.mode} scoring)")
    for maze_id in sorted(tally.solved):
        outcomes = tally.solved[maze_id]
        lines.append(f"  {maze_id}: {sum(outcomes) / len(outcomes):.3f} (n={len(outcomes)})")
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


def report_text(records: list[RunRecord], mode: str | None = None) -> str:
    """Aligned-text report: both accuracy tables, fault histograms, and a
    per-maze difficulty table."""
    return _report(_tally(records, mode))


def summary_csv(records: list[RunRecord], mode: str | None = None) -> str:
    """Long-form CSV export of the per-group accuracy summaries."""
    return _csv(summaries_from(records, mode))


def render_reports(records: list[RunRecord], mode: str | None = None) -> tuple[str, str]:
    """report.txt and summary.csv, rendered from one tally."""
    tally = _tally(records, mode)
    return _report(tally), _csv(tally.summaries)
