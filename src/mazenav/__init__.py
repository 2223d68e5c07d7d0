"""Text-maze navigation benchmark harness.

Generate seeded maze corpora, serialize them into the canonical textual
description, prompt chat models in zero/one/few-shot scenarios, verify the
returned first-person instructions with a pose simulator, and report
Complete/Partial Path Accuracy.
"""

from .generate import GenConfig, generate, generate_corpus
from .grid import Heading, Maze, MazeError, Opening, Pose, rotate
from .instructions import (
    ExitAt,
    Forward,
    ParsedResponse,
    StepIn,
    Turn,
    canonical_render,
    parse_line,
    parse_response,
)
from .scoring import MetricsSummary, RunScore, score_run, summarize
from .simulator import ExecutionTrace, Fault, FaultKind, execute, initial_heading, step
from .solver import Solution, optimal_solutions
from .textform import MazeDescription, parse, render_ascii, serialize

__version__ = "0.1.0"

__all__ = [
    "ExecutionTrace",
    "ExitAt",
    "Fault",
    "FaultKind",
    "Forward",
    "GenConfig",
    "Heading",
    "Maze",
    "MazeDescription",
    "MazeError",
    "MetricsSummary",
    "Opening",
    "ParsedResponse",
    "Pose",
    "RunScore",
    "Solution",
    "StepIn",
    "Turn",
    "canonical_render",
    "execute",
    "generate",
    "generate_corpus",
    "initial_heading",
    "optimal_solutions",
    "parse",
    "parse_line",
    "parse_response",
    "render_ascii",
    "rotate",
    "score_run",
    "serialize",
    "step",
    "summarize",
]
