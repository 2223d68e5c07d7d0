"""First-person navigation instruction grammar and lenient line parser.

Accepted forms (case-insensitive, enumeration markers and trailing
punctuation stripped; see docs/instruction_grammar.md for the EBNF):

    ... step into position N          -> StepIn(N)
    Turn [to my/your/the] left|right  -> Turn(direction)
    Walk|Move|Go [forward] to position N -> Forward(N)
    Exit|Leave [the maze] from|at|through position N -> ExitAt(N)

Whole responses are parsed line by line; lines that match nothing are kept
as rejected lines with a reason, never raised. The same pass decides the
scored prefix: the first rejected line after an instruction cuts it, once
another instruction follows, so leading and trailing prose never does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class StepIn:
    cell: int

    def __post_init__(self) -> None:
        _check_cell(self.cell)


@dataclass(frozen=True)
class Turn:
    direction: str  # "left" | "right"

    def __post_init__(self) -> None:
        if self.direction not in ("left", "right"):
            raise ValueError(f"turn direction must be left/right, got {self.direction!r}")


@dataclass(frozen=True)
class Forward:
    cell: int

    def __post_init__(self) -> None:
        _check_cell(self.cell)


@dataclass(frozen=True)
class ExitAt:
    cell: int

    def __post_init__(self) -> None:
        _check_cell(self.cell)


Instruction = StepIn | Turn | Forward | ExitAt


def _check_cell(cell: int) -> None:
    if cell < 0:
        raise ValueError(f"cell must be non-negative, got {cell}")


class UnparseableLine(ValueError):
    """A single line that matches no instruction form; carries the reason."""

    def __init__(self, line: str, reason: str):
        super().__init__(f"{reason}: {line!r}")
        self.line = line
        self.reason = reason


REASON_NO_VERB = "no verb match"
REASON_NO_POSITION = "no position number"
REASON_AMBIGUOUS_DIRECTION = "ambiguous direction"
REASON_EXTRA_CONTENT = "unrecognized instruction form"

_ENUM_MARKER = re.compile(r"^(?:step\s+\d+\s*[:.)\-]\s*|\d+\s*[.):\-]\s*|[-*•]\s+)", re.I)

_STEP_IN = re.compile(r"(?:^|\b)steps?\s+into\s+position\s+(\d+)$", re.I)
_TURN = re.compile(r"^turn(?:\s+to\s+(?:my|your|the))?\s+(left|right)$", re.I)
_FORWARD = re.compile(r"^(?:walk|move|go)(?:\s+forward)?\s+to\s+position\s+(\d+)$", re.I)
_EXIT = re.compile(
    r"^(?:exit|leave)(?:\s+the\s+maze)?\s+(?:from|at|through)\s+position\s+(\d+)$", re.I
)

_ANY_VERB = re.compile(r"\b(step|turn|walk|move|go|exit|leave)\b", re.I)
_DIRECTION_WORDS = re.compile(r"\b(left|right)\b", re.I)


def normalize_line(line: str) -> str:
    """Strip enumeration markers, trailing punctuation, and extra whitespace."""
    s = " ".join(line.split())
    s = _ENUM_MARKER.sub("", s)
    # The join leaves spaces as the only whitespace, and rstrip takes linear
    # time where a regex anchored at $ backtracks quadratically.
    return s.rstrip(" .!,;:")


def parse_line(line: str) -> Instruction:
    """Parse one response line into an Instruction; raises UnparseableLine."""
    s = normalize_line(line)
    if not s:
        raise UnparseableLine(line, REASON_NO_VERB)
    for pattern, kind in ((_STEP_IN.search, StepIn), (_EXIT.match, ExitAt),
                          (_FORWARD.match, Forward)):
        m = pattern(s)
        if m:
            try:
                return kind(int(m.group(1)))
            except ValueError:  # more digits than int() converts (4,300 by default)
                raise UnparseableLine(line, REASON_EXTRA_CONTENT) from None
    m = _TURN.match(s)
    if m:
        return Turn(m.group(1).lower())
    raise UnparseableLine(line, _failure_reason(s))


def _failure_reason(s: str) -> str:
    verb = _ANY_VERB.search(s)
    if not verb:
        return REASON_NO_VERB
    if verb.group(1).lower() == "turn":
        dirs = {m.lower() for m in _DIRECTION_WORDS.findall(s)}
        if len(dirs) != 1:
            return REASON_AMBIGUOUS_DIRECTION
        return REASON_EXTRA_CONTENT
    if not re.search(r"\d", s):
        return REASON_NO_POSITION
    return REASON_EXTRA_CONTENT


def canonical_render(instr: Instruction) -> str:
    """Canonical line form of an instruction; parse_line inverts it exactly."""
    if isinstance(instr, StepIn):
        return f"Start facing into the maze entrance and step into position {instr.cell}"
    if isinstance(instr, Turn):
        return f"Turn {instr.direction}"
    if isinstance(instr, Forward):
        return f"Walk forward to position {instr.cell}"
    if isinstance(instr, ExitAt):
        return f"Exit the maze from position {instr.cell}"
    raise TypeError(f"not an instruction: {instr!r}")


def render_sequence(instrs: list[Instruction] | tuple[Instruction, ...]) -> str:
    """One canonical line per instruction, newline-joined."""
    return "\n".join(canonical_render(i) for i in instrs)


@dataclass(frozen=True)
class RejectedLine:
    line_no: int
    text: str
    reason: str


@dataclass(frozen=True)
class ParsedResponse:
    """All recognized instructions plus every non-blank line that failed;
    ``prefix_len`` counts the instructions before the first rejected line
    inside the instruction block (all of them if none is)."""

    instructions: tuple
    rejected_lines: tuple
    prefix_len: int

    def scored_prefix(self) -> tuple[list[Instruction], bool]:
        """Instructions usable for scoring, and whether a rejected line inside
        the recognized block cut them short: (prefix, truncated)."""
        n = self.prefix_len
        return list(self.instructions[:n]), n < len(self.instructions)


def parse_response(text: str) -> ParsedResponse:
    """Split a full model response into instructions and rejected lines.

    Never raises: blank lines are skipped and unparseable lines (including
    any leading/trailing prose) are recorded per line with a reason.
    """
    instructions: list[Instruction] = []
    rejected: list[RejectedLine] = []
    gap = None  # instructions read before the first rejected line after one
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            instructions.append(parse_line(raw))
        except UnparseableLine as err:
            rejected.append(RejectedLine(line_no, raw.strip(), err.reason))
            if gap is None and instructions:
                gap = len(instructions)
    return ParsedResponse(tuple(instructions), tuple(rejected),
                          len(instructions) if gap is None else gap)


_KINDS = {"step_in": StepIn, "forward": Forward, "exit_at": ExitAt}


def instruction_to_dict(instr: Instruction) -> dict:
    if isinstance(instr, Turn):
        return {"kind": "turn", "direction": instr.direction}
    for kind, cls in _KINDS.items():
        if isinstance(instr, cls):
            return {"kind": kind, "cell": instr.cell}
    raise TypeError(f"not an instruction: {instr!r}")
