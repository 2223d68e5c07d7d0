"""The benchmark's workloads: set-up, one timed iteration, output checks.

Each workload runs closed-loop from one process: the next iteration starts
when the previous one has returned. ``iterate(i)`` times only the calls into
the program, with a ``Stopwatch``, and is repeatable: the same ``i`` gives
the same inputs, so a traced and an untraced iteration do identical work. ``check`` returns
(attempted, failed, problems); a problem fails the whole iteration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import inputs

corpus = importlib.import_module("mazenav.corpus")
gateway = importlib.import_module("mazenav.gateway")
runner = importlib.import_module("mazenav.runner")
scoring = importlib.import_module("mazenav.scoring")
simulator = importlib.import_module("mazenav.simulator")
solver = importlib.import_module("mazenav.solver")
textform = importlib.import_module("mazenav.textform")

HERE = Path(__file__).resolve().parent


class Stopwatch:
    """Wall time and this process's CPU time of the timed sections of one
    iteration."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def section(self):
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu


def _zero_clock() -> float:
    return 0.0  # record timestamps fixed, as mock-eval does, so logs are byte-stable


class Workload:
    name = ""
    concurrency = 1
    item = "item"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._dirs = 0
        self._first: dict[str, object] = {}

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.work / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Build this workload's inputs; called several times, each fresh."""

    def iterate(self, i: int) -> tuple[int, Stopwatch, object]:
        raise NotImplementedError

    def check(self, result) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever set-up started."""

    def _same(self, what: str, value) -> list[str]:
        """Problem if ``value`` differs from the first ``what`` of this run."""
        first = self._first.setdefault(what, value)
        return [] if value == first else [f"{what} differs from the first iteration"]


class _Eval(Workload):
    """Shared by the workloads that run trials through ``runner.run``."""

    concurrency = 2
    item = "trial"

    def _build_corpus(self, base: Path):
        built = corpus.build_corpus(
            base / "corpus", inputs.eval_config(self.seed), inputs.EVAL_TESTS, inputs.EVAL_SHOTS
        )
        self.corpus_dir = base / "corpus"
        self.tests = built.tests
        self.solutions = {maze_id: solver.reference_solution(m) for maze_id, m in built.tests}

    def _spec(self, providers, output_dir: Path):
        return runner.ExperimentSpec(
            corpus_dir=self.corpus_dir,
            output_dir=output_dir,
            providers=providers,
            concurrency=self.concurrency,
            experiment_id=f"perfbench-{self.name}",
        )

    def _check_records(self, records) -> tuple[int, list[str]]:
        """Failed trials and problems, against ``self.expected`` keyed by
        (provider, maze_id); every planned trial must appear once."""
        ok = set()
        for r in records:
            want = self.expected.get((r.provider, r.maze_id))
            if want is not None and r.scores == want and r.attempts == 1:
                ok.add(r.key())
        problems = []
        if len(records) != self.planned:
            problems.append(f"{len(records)} records, {self.planned} trials planned")
        for mode in scoring.MODES:
            for s in runner.summaries_from(records, mode):
                wants = [
                    self.expected[(r.provider, r.maze_id)][mode]
                    for r in records
                    if (r.provider, r.scenario) == (s.model, s.scenario)
                ]
                complete = 100.0 * sum(w["complete"] for w in wants) / len(wants)
                partial = 100.0 * sum(w["partial"] for w in wants) / len(wants)
                if abs(s.complete_pct - complete) > 1e-9 or abs(s.partial_pct - partial) > 1e-9:
                    problems.append(
                        f"{s.model}/{s.scenario} {mode}: complete {s.complete_pct:.3f}"
                        f" partial {s.partial_pct:.3f}, scripts imply {complete:.3f} {partial:.3f}"
                    )
        return self.planned - len(ok), problems


class EvalHttp(_Eval):
    """One provider behind a local OpenAI-compatible server with a fixed
    per-request delay, so the provider wait dominates each trial. A cold
    run into a fresh directory is followed by a no-op rerun over its log
    and the report over that log, as mock-eval and acceptance criterion 7
    do."""

    name = "eval-http"
    delay_ms = 5

    server = None

    def setup(self) -> None:
        self.close()
        base = self.fresh_dir("setup")
        self._build_corpus(base)
        table = base / "replies.json"
        inputs.dump(inputs.reply_table(self.tests, self.solutions, self.seed), table)
        os.environ["no_proxy"] = "127.0.0.1"  # the server is local; never route it via a proxy
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "replyserver.py"), str(table), str(self.delay_ms)],
            stdout=subprocess.PIPE,
            text=True,
        )
        port = int(self.server.stdout.readline())
        self.provider = gateway.ProviderConfig(
            name="http", model="http-v1", endpoint=f"http://127.0.0.1:{port}/v1/chat/completions"
        )
        # The first request pays the transport's lazy import; keep it in set-up.
        maze = self.tests[0][1]
        gateway.complete(self.provider, gateway.build_messages(maze, [], gateway.ZERO_SHOT))
        self.expected = {
            ("http", maze_id): inputs.expected_scores(
                inputs.http_style(index), index, self.solutions[maze_id]
            )
            for index, (maze_id, _) in enumerate(self.tests)
        }
        self.planned = len(gateway.DEFAULT_SCENARIOS) * len(self.tests)

    def iterate(self, i: int):
        spec = self._spec([self.provider], self.fresh_dir("run"))
        log = spec.output_dir / runner.RECORDS_NAME
        watch = Stopwatch()
        with watch.section():
            runner.run(spec, clock=_zero_clock)
        cold_log = log.read_bytes()
        with watch.section():
            runner.run(spec, clock=_zero_clock)
            records = runner.load_records(log)
            report = runner.report_text(records), runner.summary_csv(records)
        return self.planned, watch, (log, cold_log, records, report)

    def check(self, result):
        log, cold_log, records, report = result
        failed, problems = self._check_records(records)
        if log.read_bytes() != cold_log:
            problems.append("the no-op rerun changed the record log")
        # Latency is measured, so compare logs with it zeroed.
        stable = "".join(dataclasses.replace(r, latency_ms=0.0).to_json_line() for r in records)
        problems += self._same("record log with latency zeroed",
                               hashlib.sha256(stable.encode()).hexdigest())
        problems += self._same("report text and CSV", report)
        return self.planned, failed, problems

    def close(self) -> None:
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None


class GenSolve(Workload):
    """Corpus generation on large sparse grids, then the reference solution
    of every maze. Every iteration builds the same corpus: its work is
    fixed, not drawn from the seed, because the cost of a maze varies
    tenfold and that of a corpus up to twofold between corpus seeds."""

    name = "gen-solve"
    item = "maze"
    mazes = 10

    def iterate(self, i: int):
        cfg = inputs.gen_solve_config()
        out = self.fresh_dir("corpus")
        watch = Stopwatch()
        with watch.section():
            built = corpus.build_corpus(out, cfg, self.mazes, 0)
            solutions = [solver.reference_solution(maze) for _, maze in built.tests]
        return len(built.tests), watch, (cfg, built.tests, solutions)

    def check(self, result):
        cfg, tests, solutions = result
        failed = 0
        texts = []
        for (_, maze), solution in zip(tests, solutions):
            text = textform.serialize(maze).text
            texts.append(text)
            round_trip = textform.parse(text) == maze
            clean_exit = simulator.execute(maze, solution.instructions).complete
            in_window = cfg.min_path <= len(solution.cells) - 1 <= cfg.max_path
            failed += not (round_trip and clean_exit and in_window)
        problems = [] if len(tests) == self.mazes else [f"{len(tests)} mazes, {self.mazes} asked"]
        problems += self._same("corpus", texts)
        return self.mazes, failed, problems


WORKLOADS = {w.name: w for w in (GenSolve, EvalHttp)}
