"""Complete and Partial Path Accuracy.

Two scoring modes are first-class:

* ``oracle-match`` (default): step i is correct iff it equals step i of the
  reference solution; Partial is the matching prefix over the reference
  length, Complete requires the exact sequence.
* ``execution``: steps are correct while the simulator accepts them;
  Complete means the run exits cleanly even on a non-minimal path.

In both modes a rejected line inside the instruction block ends the scored
prefix (UnparseableStep). Partial is normalized by the reference solution
length, which keeps Complete <= Partial in every aggregate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .grid import Maze
from .instructions import ParsedResponse
from .simulator import ExecutionTrace, FaultKind, execute
from .solver import Solution, reference_solution

MODE_ORACLE = "oracle-match"
MODE_EXECUTION = "execution"
MODES = (MODE_ORACLE, MODE_EXECUTION)


@dataclass(frozen=True)
class RunScore:
    complete: bool
    partial: float
    first_fault: tuple[int, str] | None  # (step index, FaultKind value)
    mode: str

    def to_dict(self) -> dict:
        return {
            "complete": self.complete,
            "partial": self.partial,
            "first_fault": list(self.first_fault) if self.first_fault else None,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunScore":
        fault = data.get("first_fault")
        return cls(
            complete=data["complete"],
            partial=data["partial"],
            first_fault=(fault[0], fault[1]) if fault else None,
            mode=data["mode"],
        )

    @staticmethod
    def is_stored(data) -> bool:
        """Whether ``data`` is a score ``to_dict`` could have written, so that
        ``from_dict`` and the report can read it: a partial in [0, 1] (so not
        NaN), a fault at a step >= 0 of a FaultKind, and a complete score at
        partial 1 with no fault."""
        if not isinstance(data, dict) or "first_fault" not in data:
            return False
        complete, partial, fault = data.get("complete"), data.get("partial"), data["first_fault"]
        return (type(complete) is bool
                and type(partial) in (int, float) and 0 <= partial <= 1
                and (fault is None or (type(fault) is list and len(fault) == 2
                                       and type(fault[0]) is int and fault[0] >= 0
                                       and fault[1] in _FAULT_KINDS))
                and (not complete or (partial == 1 and fault is None))
                and isinstance(data.get("mode"), str))


_FAULT_KINDS = tuple(kind.value for kind in FaultKind)


@dataclass(frozen=True)
class MetricsSummary:
    model: str
    scenario: str
    n: int
    complete_pct: float
    partial_pct: float


def score_run(
    maze: Maze,
    parsed: ParsedResponse,
    mode: str = MODE_ORACLE,
    *,
    reference: Solution | None = None,
    lenient_exit: bool = False,
    trace: ExecutionTrace | None = None,
) -> RunScore:
    """Score one parsed response against the maze's reference solution.

    ``trace``, if given, must be the execution of the response's scored
    prefix under the same ``lenient_exit``; execution mode then reuses it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown scoring mode: {mode!r}")
    ref = reference if reference is not None else reference_solution(maze)
    ref_len = len(ref.instructions)
    usable, truncated = parsed.scored_prefix()

    if mode == MODE_ORACLE:
        match = 0
        for got, want in zip(usable, ref.instructions):
            if got != want:
                break
            match += 1
        deviated = match < min(len(usable), ref_len)
        fault = None
        if not deviated and truncated:
            fault = (len(usable), FaultKind.UNPARSEABLE_STEP.value)
        complete = (
            not truncated
            and len(parsed.instructions) == ref_len
            and match == ref_len
        )
        partial = 1.0 if complete else min(match, ref_len) / ref_len
        return RunScore(complete, partial, None if complete else fault, mode)

    if trace is None:
        trace = execute(maze, usable, lenient_exit=lenient_exit)
    if trace.complete:
        return RunScore(True, 1.0, None, mode)
    ok_steps = trace.failed_at
    if trace.fault is not None:
        fault = (trace.failed_at, trace.fault.kind.value)
    elif truncated:
        fault = (len(usable), FaultKind.UNPARSEABLE_STEP.value)
    else:
        fault = None  # model simply stopped before exiting
    return RunScore(False, min(ok_steps / ref_len, 1.0), fault, mode)


def summarize(model: str, scenario: str, scores: Sequence[RunScore]) -> MetricsSummary:
    """Aggregate one model x scenario group; percentages are exact, reports
    round to one decimal place."""
    if not scores:
        raise ValueError(f"empty score group for {model}/{scenario}")
    n = len(scores)
    complete_pct = 100.0 * sum(1 for s in scores if s.complete) / n
    partial_pct = 100.0 * sum(s.partial for s in scores) / n
    return MetricsSummary(model, scenario, n, complete_pct, partial_pct)
