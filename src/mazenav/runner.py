"""Experiment orchestration: providers x scenarios x test mazes.

Every trial appends one JSON record line to records.jsonl in the output
directory. Trials whose key (provider, model, scenario, maze, repeat) is
already present are skipped, so interrupted runs resume and finished runs
are idempotent. Before the first provider call, a run builds and hashes the
prompt of each scenario and test maze once, whatever the providers and
repeats, into one table that the resume check, the calls and the records
read. The resume check refuses a log that holds, from any provider, a
record for a maze the corpus lacks, one made from another prompt than the
run has for its scenario and maze, or one made by another model under one
of the spec's provider names; it judges every other record again under the
spec's exit rule and refuses one that its reply does not reproduce. Worker
threads make only the provider calls; the submitting thread judges each
reply and writes its record, in planning order, which keeps the log
byte-stable regardless of scheduling. ``judge``, the one path from a reply
to its scores (the resume check and the CLI's verify call it too), parses
the reply, executes its scored prefix and scores that execution in each
mode. A missing or rejected credential (AuthError), a request the provider
refuses or a mock script that cannot be used (RequestRejected), any other
exception but a GatewayError, or an interrupt cancels the calls still
queued and propagates; the records written before it stay.

The log is read once per run: the read reports where its whole lines end,
and the handle that appends cuts a torn last line or ends an unterminated
one. A record whose key fields have the wrong types is a corrupt line, so a
resume never pays for its trial again. ``run_records`` returns every record
of the log, the loaded ones and the new ones; ``run()`` returns their
summaries, which ``report`` renders. A record whose scoring mode is not one
of ``MODES``, whose score in either mode lacks the shape ``RunScore``
stores, whose response is not a string, or whose trace poses are not [int,
str] pairs, is a corrupt line too: the report could not read it, nor the
resume check judge it, and a trace is outside input too.

Every command imports this module, so the thread pool (with ``logging``) is
imported in ``run_records``, on first use.
"""

from __future__ import annotations

import json
import time
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
    mock_key,
    prompt_hash,
)
from .grid import Maze
from .instructions import ParsedResponse, instruction_to_dict, parse_response
# perfbench calls report_text, summary_csv and summaries_from here; its tracer patches two.
from .report import SpecError, report_text, summaries_from, summary_csv
from .scoring import MODES, MODE_ORACLE, MetricsSummary, RunScore, score_run
from .simulator import ExecutionTrace, Fault, FaultKind, execute
from .solver import Solution, reference_solution

RECORDS_NAME = "records.jsonl"


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
    """Refuse to resume a log holding, from any provider, a record for a maze
    the corpus lacks, or made from another prompt (corpus, shots or system
    prompt) than the run's for its scenario and maze, or by another model
    under one of the spec's provider names. ``prompts`` maps (scenario,
    maze_id) to the run's (messages, hash), and ``tests`` maze_id to (Maze,
    reference). Every other record must be what judging its reply under the
    spec's exit rule writes, as the report compares them in one table; for a
    scenario the spec does not run, with no prompt to compare, that is all."""
    models = {p.name: p.model for p in spec.providers}
    for record in records:
        model = models.get(record.provider, record.model)
        prompt = prompts.get((record.scenario, record.maze_id))
        test = tests.get(record.maze_id)
        if record.model != model:
            problem = f"is for model {record.model!r}, not {model!r}"
        elif test is None:
            problem = f"is for maze {record.maze_id!r}, which the corpus does not hold"
        elif prompt is not None and prompt[1] != record.prompt_hash:
            problem = "was made from another prompt"
        elif not (differs := _differs(record, *test, spec.lenient_exit)):
            continue
        elif _differs(record, *test, not spec.lenient_exit) is None:
            problem = (f"was scored with lenient_exit {json.dumps(not spec.lenient_exit)}, "
                       f"not {json.dumps(spec.lenient_exit)}")
        else:
            problem = f"does not match its reply ({differs} differs)"
            if prompt is None:
                problem = (f"is for scenario {record.scenario!r}, which this spec does not run, "
                           f"and {problem}")
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
                        trial_key=mock_key(maze_id, scenario.name))
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
