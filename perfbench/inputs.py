"""Seeded inputs for the benchmark workloads.

Everything here is a function of the workload seed: the corpus settings,
the four scripted reply styles, the score each reply must earn, and the
reply table served to the HTTP workload. The program under test only ever
sees the generated corpus, scripts and HTTP replies.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random

gateway = importlib.import_module("mazenav.gateway")
generate = importlib.import_module("mazenav.generate")
instructions = importlib.import_module("mazenav.instructions")
scoring = importlib.import_module("mazenav.scoring")
simulator = importlib.import_module("mazenav.simulator")

STYLES = ("exact", "truncated", "chatty", "detour")

# eval-http corpus: the default 2x5 config.
EVAL_TESTS = 100
EVAL_SHOTS = 6

_PREAMBLES = (
    "Sure! Here is how I would walk through this maze.",
    "Let me picture the layout from the entrance first.",
    "Okay, here are my instructions:",
)
_EPILOGUES = ("And that is it, I am out!", "Hope this helps.", "Done.")
_MARKERS = ("{n}. ", "{n}) ", "Step {n}: ", "- ", "* ", "")
_CASINGS = (str, str.lower, str.upper)
_PUNCT = ("", ".", "!")
_PHRASES = {
    instructions.StepIn: (
        'Start facing into the maze at the "^" symbol and step into position {cell}',
        "Start facing into the maze entrance and step into position {cell}",
    ),
    instructions.Turn: ("Turn to my {direction}", "Turn {direction}", "turn to the {direction}"),
    instructions.Forward: (
        "Walk forward to position {cell}",
        "Move to position {cell}",
        "Go forward to position {cell}",
    ),
    instructions.ExitAt: (
        "Exit the maze from position {cell}",
        "Leave the maze through position {cell}",
        "Exit at position {cell}",
    ),
}


def eval_config(seed: int):
    return generate.GenConfig(seed=seed)


# gen-solve corpus seed, fixed: the benchmark seed does not change its work.
GEN_SOLVE_SEED = 1


def gen_solve_config():
    """Large sparse grids, where shortest-path enumeration dominates."""
    return generate.GenConfig(
        rows=6, cols=10, wall_count=4, min_path=10, max_path=14, seed=GEN_SOLVE_SEED
    )


def _detour_index(instrs) -> int:
    """Index of the first turn directly followed by a forward move."""
    for i in range(len(instrs) - 1):
        if isinstance(instrs[i], instructions.Turn) and isinstance(
            instrs[i + 1], instructions.Forward
        ):
            return i
    raise ValueError("reference solution has no turn followed by a move")


def _chatty(instrs, rng: random.Random) -> str:
    lines = [rng.choice(_PREAMBLES), ""]
    for n, instr in enumerate(instrs, start=1):
        phrase = rng.choice(_PHRASES[type(instr)]).format(**vars(instr))
        marker = rng.choice(_MARKERS).format(n=n)
        lines.append(marker + rng.choice(_CASINGS)(phrase) + rng.choice(_PUNCT))
    lines += ["", rng.choice(_EPILOGUES)]
    return "\n".join(lines)


def reply(style: str, index: int, solution, rng: random.Random) -> str:
    """Reply text of one style for the test maze at ``index``."""
    instrs = solution.instructions
    if style == "chatty":
        return _chatty(instrs, rng)
    if style == "detour":
        t = _detour_index(instrs)
        wrong = instructions.Turn("left" if instrs[t].direction == "right" else "right")
        instrs = instrs[:t] + (wrong,) + instrs[t + 1:]
    text = instructions.render_sequence(instrs)
    if style == "truncated" and index % 2 == 1:
        text = "\n".join(text.splitlines()[:2])
    return text


def expected_scores(style: str, index: int, solution) -> dict:
    """mode -> RunScore dict the reply of ``style`` must earn.

    Derived from how each reply was built, not by running the scorer:
    a truncated reply keeps the first two reference steps; a detour flips
    the turn at index t, so oracle-match matches t steps and the simulator
    rejects the next forward move, which now points away from its target.
    """
    n = len(solution.instructions)
    oracle = execution = (True, 1.0, None)
    if style == "truncated" and index % 2 == 1:
        oracle = execution = (False, 2 / n, None)
    elif style == "detour":
        t = _detour_index(solution.instructions)
        oracle = (False, t / n, None)
        execution = (False, min((t + 1) / n, 1.0), [t + 1, simulator.FaultKind.NOT_ON_RAY.value])
    return {
        mode: {"complete": c, "partial": p, "first_fault": f, "mode": mode}
        for mode, (c, p, f) in ((scoring.MODE_ORACLE, oracle), (scoring.MODE_EXECUTION, execution))
    }


def http_style(index: int) -> str:
    """The HTTP workload's single provider cycles through every style."""
    return STYLES[index % len(STYLES)]


def request_key(content: str) -> str:
    """Reply-table key: digest of the final user message (the test maze)."""
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


def reply_table(tests, solutions, seed: int) -> dict:
    rng = random.Random(f"{seed}:http")
    table = {}
    for index, (maze_id, maze) in enumerate(tests):
        question = gateway.build_messages(maze, [], gateway.ZERO_SHOT)[-1].content
        table[request_key(question)] = reply(http_style(index), index, solutions[maze_id], rng)
    return table


def dump(data, path) -> None:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
