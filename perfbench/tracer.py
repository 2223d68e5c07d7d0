"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces module and class attributes at the call sites between
layers with timing wrappers and puts the originals back afterwards; no
program file is edited. Spans stay in memory and are written out once, at
exit. Every span records its name, start, end, parent span, thread and the
trial it belongs to.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import threading
import time

Span = collections.namedtuple("Span", "id parent name start end thread trial")

# Layers with a span; each yields <layer>.calls, .busy_s and .self_s.
LAYERS = (
    "runner.run",
    "runner.trial",
    "corpus.build_corpus",
    "corpus.load_corpus",
    "generate.generate",
    "solver.optimal_solutions",
    "solver.reference_solution",
    "textform.serialize",
    "textform.parse",
    "gateway.build_messages",
    "gateway.prompt_hash",
    "gateway.complete",
    "instructions.parse_response",
    "simulator.execute",
    "scoring.score_run",
    "runner.to_json_line",
    "runner.from_json_line",
    "runner.load_records",
    "runner.report_text",
    "runner.summary_csv",
)

# Metrics derived from spans and counters, with their units.
DERIVED = {
    "generate.candidates": "count",
    "generate.accept_ratio": "ratio",
    "solver.paths_enumerated": "count",
    "textform.serialize.calls_per_trial": "calls/trial",
    "gateway.attempts_per_call": "ratio",
    "instructions.rejected_per_reply": "lines/reply",
    "simulator.execute.calls_per_trial": "calls/trial",
    "runner.worker_busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _module(name: str):
    # mazenav/__init__.py rebinds mazenav.generate to the function, so
    # modules are reached through the import system, never as attributes.
    return importlib.import_module(f"mazenav.{name}")


def _trial_key(args) -> str:
    # runner._run_trial(spec, provider, scenario, maze_id, maze, shots, reference, repeat, clock)
    return f"{args[1].name}|{args[3]}|{args[2].name}|{args[7]}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._lock = threading.Lock()  # counters are updated from worker threads
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every layer-boundary call site."""
        runner, gateway, corpus = _module("runner"), _module("gateway"), _module("corpus")
        generate, solver, scoring = _module("generate"), _module("solver"), _module("scoring")
        self._span(runner, "run", "runner.run", root=True)
        self._span(runner, "_run_trial", "runner.trial", trial_key=_trial_key)
        self._span(runner, "load_corpus", "corpus.load_corpus")
        self._span(runner, "reference_solution", "solver.reference_solution")
        self._span(runner, "build_messages", "gateway.build_messages")
        self._span(runner, "prompt_hash", "gateway.prompt_hash")
        self._span(runner, "parse_response", "instructions.parse_response",
                   count=("instructions.rejected", lambda r: len(r.rejected_lines)))
        self._span(runner, "execute", "simulator.execute")
        self._span(runner, "score_run", "scoring.score_run")
        self._span(runner, "load_records", "runner.load_records")
        self._span(runner, "report_text", "runner.report_text")
        self._span(runner, "summary_csv", "runner.summary_csv")
        self._span(runner.RunRecord, "to_json_line", "runner.to_json_line")
        self._span(runner.RunRecord, "from_json_line", "runner.from_json_line")
        self._span(gateway, "complete", "gateway.complete",
                   count=("gateway.attempts", lambda c: c.attempts))
        self._span(gateway, "serialize", "textform.serialize")
        self._span(scoring, "execute", "simulator.execute")
        self._span(corpus, "build_corpus", "corpus.build_corpus")
        self._span(corpus, "load_corpus", "corpus.load_corpus")
        self._span(corpus, "parse", "textform.parse")
        self._span(corpus, "serialize", "textform.serialize")
        self._span(generate, "generate", "generate.generate")
        self._span(generate, "optimal_solutions", "solver.optimal_solutions")
        self._count(generate, "bfs_distances", "generate.candidates", lambda _: 1)
        self._span(solver, "optimal_solutions", "solver.optimal_solutions")
        self._span(solver, "reference_solution", "solver.reference_solution")
        self._count(solver, "shortest_cell_paths", "solver.paths_enumerated", len)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._saved.append((owner, attr, raw))

    def _count(self, owner, attr: str, counter: str, amount) -> None:
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._add(counter, amount(result))
                return result
            return counted

        self._patch(owner, attr, make)

    def _span(self, owner, attr: str, name: str, *, root=False, trial_key=None, count=None) -> None:
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                local = tracer._local
                stack = local.__dict__.setdefault("stack", [])
                outer_trial = local.__dict__.get("trial")
                parent = stack[-1] if stack else tracer._root
                sid = next(tracer._ids)
                trial = trial_key(args) if trial_key else outer_trial
                stack.append(sid)
                local.trial = trial
                if root:
                    tracer._root = sid
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    local.trial = outer_trial
                    if root:
                        tracer._root = parent
                    tracer.spans.append(
                        Span(sid, parent, name, start, end, threading.get_ident(), trial)
                    )
                if count:
                    tracer._add(count[0], count[1](result))
                return result
            return traced

        self._patch(owner, attr, make)

    def _add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counters[counter] += amount

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

    def layer_metrics(self, iterations: int, concurrency: int) -> dict[str, float]:
        """Per-layer totals per traced iteration, plus derived ratios.

        A span's self time is its duration minus the part of it covered by
        its child spans, from any thread.
        """
        children = collections.defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        calls = collections.Counter()
        busy = collections.Counter()
        self_s = collections.Counter()
        in_trial = collections.Counter()
        for s in self.spans:
            calls[s.name] += 1
            busy[s.name] += s.end - s.start
            self_s[s.name] += s.end - s.start - _covered(s.start, s.end, children.get(s.id, ()))
            if s.trial is not None and s.name != "runner.trial":
                in_trial[s.name] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = calls[name] / iterations
            metrics[f"{name}.busy_s"] = busy[name] / iterations
            metrics[f"{name}.self_s"] = self_s[name] / iterations
        trials = calls["runner.trial"]
        metrics.update({
            "generate.candidates": self.counters["generate.candidates"] / iterations,
            "generate.accept_ratio": ratio(calls["generate.generate"], self.counters["generate.candidates"]),
            "solver.paths_enumerated": self.counters["solver.paths_enumerated"] / iterations,
            "textform.serialize.calls_per_trial": ratio(in_trial["textform.serialize"], trials),
            "gateway.attempts_per_call": ratio(self.counters["gateway.attempts"], calls["gateway.complete"]),
            "instructions.rejected_per_reply": ratio(
                self.counters["instructions.rejected"], calls["instructions.parse_response"]),
            "simulator.execute.calls_per_trial": ratio(in_trial["simulator.execute"], trials),
            "runner.worker_busy_ratio": ratio(busy["runner.trial"], busy["runner.run"] * concurrency),
        })
        return metrics


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
