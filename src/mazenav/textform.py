"""Canonical textual maze description, its parser, and an ASCII renderer.

The description is the wire format embedded in prompts, so serialization is
deterministic and byte-stable; tests/fixtures/golden_description.txt holds
the worked 2x5 maze. "^" marks the entrance opening and "x" the exit, on the
boundary line above or below the zone grid or beside a grid row. Both
writers, ``serialize`` and ``render_ascii``, look the two markers up in one
{(cell, side): mark} dict built per call. The geometry comes from grid: a
wall pair is checked against open_adjacency, and grid.adjacency is the one
walled-neighbour query.

``serialize`` is the only template. ``parse`` extracts just the variable
fields (size, topology markers, ENTRANCE/EXIT statements, wall pairs), builds
the maze, and requires every line to equal that maze's own serialization
under the whitespace canon (strip, collapse runs of spaces, drop blank
lines), so re-worded prose is rejected. Of the faults found (a missing
marker, a statement that disagrees with its marker, a bad wall pair, the
first deviating line) it raises the one on the earliest line. A declared
size with more zones than the text has characters is rejected before
serializing, so a short text cannot make the parser build a huge grid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .grid import Heading, Maze, Opening, boundary_openings, check_cell, open_adjacency

HEADER = "Here is the text description of a maze:"
TOPOLOGY_HEADER = "- From a bird's eye perspective, the room has the following zone topology:"
WALLS_SENTENCE_1 = "- Walls cannot be traversed. For example, if there was a wall between zones 1 and 2,"
WALLS_SENTENCE_2 = "you would not be able to move from 1 to 2"
WALLS_HEADER = "- Furthermore there are internal walls BETWEEN the following zones:"
NO_WALLS_LINE = "- There are no internal walls between any zones"

_ORDINALS = (
    "First", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
)


class MalformedDescription(ValueError):
    """Description text that does not follow the template; names the first
    offending line."""

    def __init__(self, line_no: int, reason: str, line_text: str = ""):
        super().__init__(f"line {line_no}: {reason}" + (f": {line_text!r}" if line_text else ""))
        self.line_no = line_no
        self.reason = reason
        self.line_text = line_text


@dataclass(frozen=True)
class MazeDescription:
    text: str


def _collapse(line: str) -> str:
    return " ".join(line.split())


def canonical_lines(text: str) -> list[str]:
    """The whitespace canon: stripped, space-collapsed, non-blank lines."""
    return [s for s in (_collapse(line) for line in text.splitlines()) if s]


def _ordinal(i: int) -> str:
    if i < len(_ORDINALS):
        return _ORDINALS[i]
    n = i + 1
    suffix = "th" if n % 100 in (11, 12, 13) else {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def _numbering_phrase(rows: int, cols: int) -> str:
    segments = [
        f"{r * cols} to {r * cols + cols - 1} ({_ordinal(r)} row)" for r in range(rows)
    ]
    if len(segments) == 1:
        return segments[0]
    return ", ".join(segments[:-1]) + " and " + segments[-1]


def _marks(maze: Maze) -> dict[tuple[int, Heading], str]:
    """The boundary markers, keyed by (cell, side): "^" at the entrance, "x"
    at the exit."""
    return {(maze.entrance.cell, maze.entrance.side): "^", (maze.exit.cell, maze.exit.side): "x"}


def _topology_lines(maze: Maze) -> list[str]:
    rows, cols = maze.rows, maze.cols
    marks = _marks(maze)
    gutters = any(side in (Heading.W, Heading.E) for _, side in marks)

    grid_tokens: list[list[str]] = []
    top = [marks.get((c, Heading.N), "--") for c in range(cols)]
    bottom = [marks.get(((rows - 1) * cols + c, Heading.S), "--") for c in range(cols)]
    grid_tokens.append([""] + top + [""] if gutters else top)
    for r in range(rows):
        row = [str(r * cols + c) for c in range(cols)]
        if gutters:
            row = ([marks.get((r * cols, Heading.W), "")] + row
                   + [marks.get((r * cols + cols - 1, Heading.E), "")])
        grid_tokens.append(row)
    grid_tokens.append([""] + bottom + [""] if gutters else bottom)

    widths = [max(len(line[i]) for line in grid_tokens) for i in range(len(grid_tokens[0]))]
    return [
        " ".join(tok.ljust(w) for tok, w in zip(line, widths)).rstrip()
        for line in grid_tokens
    ]


def serialize(maze: Maze) -> MazeDescription:
    """Render a maze as its canonical multi-line description."""
    rows, cols = maze.rows, maze.cols
    row_word = "row" if rows == 1 else "rows"
    col_word = "column" if cols == 1 else "columns"
    lines = [
        HEADER,
        f"  - The floor is always composed of {maze.size} squared zones or positions,"
        " in a chess-board-like pattern",
        f"  - Size is {rows} {row_word} by {cols} {col_word}",
        f"  - The zones are always numbered from {_numbering_phrase(rows, cols)}",
        f"  {TOPOLOGY_HEADER}",
    ]
    lines.extend("        " + t for t in _topology_lines(maze))
    lines.append("")
    lines.append(
        f'  - You enter the maze from the direction of the "^" symbol'
        f" into position {maze.entrance.cell}"
    )
    lines.append(
        f'    and exit at position {maze.exit.cell} in the direction of the "x" symbol, so:'
    )
    lines.append(f"      * ENTRANCE at {maze.entrance.cell}")
    lines.append(f"      * EXIT at {maze.exit.cell}")
    lines.append("")
    lines.append(f"  {WALLS_SENTENCE_1}")
    lines.append(f"    {WALLS_SENTENCE_2}")
    if maze.walls:
        lines.append(f"  {WALLS_HEADER}")
        lines.extend(f"      * {a} and {b}" for a, b in sorted(maze.walls))
    else:
        lines.append(f"  {NO_WALLS_LINE}")
    text = "\n".join(lines) + "\n"
    return MazeDescription(text)


_SIZE_RE = re.compile(r"^- Size is (\d+) rows? by (\d+) columns?$")
_STATEMENT_RE = re.compile(r"^\* (ENTRANCE|EXIT) at (\d+)$")
_WALL_ITEM_RE = re.compile(r"^\* (\d+) and (\d+)$")


def _numbers(digits) -> tuple[int, ...] | None:
    """The digit strings as ints, or None when one holds more digits than
    int() converts (CPython's limit is 4,300 by default)."""
    try:
        return tuple(map(int, digits))
    except ValueError:
        return None


def _markers(block: list[tuple[int, str]], rows: int, cols: int) -> dict[str, Opening]:
    """The first ^ and x markers of the rows+2 topology lines; the side is the
    boundary line or row gutter that holds each."""
    markers: dict[str, Opening] = {}
    for i, (_, s) in enumerate(block):
        tokens = s.split()
        if i in (0, rows + 1):
            base, side = (0, Heading.N) if i == 0 else ((rows - 1) * cols, Heading.S)
            spots = [(tok, base + c, side) for c, tok in enumerate(tokens[:cols])]
        else:
            spots = [(tokens[0], (i - 1) * cols, Heading.W), (tokens[-1], i * cols - 1, Heading.E)]
        for tok, cell, side in spots:
            if tok in ("^", "x") and tok not in markers:
                markers[tok] = Opening(cell, side)
    return markers


def parse(text: str) -> Maze:
    """Inverse of serialize; raises MalformedDescription naming the earliest
    offending line for anything that deviates beyond whitespace."""
    entries = ((no, _collapse(raw)) for no, raw in enumerate(text.splitlines(), start=1))
    lines = [(no, s) for no, s in entries if s]
    size = next(((no, m) for no, s in lines if (m := _SIZE_RE.match(s))), None)
    if size is None:
        head = lines[:3] or [(1, "")]
        no, s = head[0] if head[0][1] != HEADER else head[-1]
        raise MalformedDescription(no, "expected description header and size line", s)
    dims = _numbers(size[1].groups())
    if dims is None or min(dims) < 1 or dims[0] * dims[1] > len(text):
        raise MalformedDescription(size[0], "size is empty or longer than the text", size[1].string)
    rows, cols = dims

    faults: list[tuple[int, str, str]] = []  # (line_no, reason, line_text)
    texts = [s for _, s in lines]
    top = texts.index(TOPOLOGY_HEADER) + 1 if TOPOLOGY_HEADER in texts else len(lines)
    block = lines[top:top + rows + 2]
    markers = _markers(block, rows, cols)
    statements = {}
    for no, s in lines:
        if m := _STATEMENT_RE.match(s):
            word, digits = m.groups()
            cell = _numbers([digits])
            if cell is None:
                faults.append((no, f"{word} zone out of bounds", s))
            else:
                statements[word] = (no, cell[0])
    for word, symbol, other in (("ENTRANCE", "^", "x"), ("EXIT", "x", "^")):
        no, cell = statements.get(word, (0, None))
        if symbol not in markers:
            faults.append(((block or lines)[-1][0], f'topology block has no "{symbol}" marker', ""))
            # A stand-in opening at the statement's cell lets the comparison
            # below still name an earlier deviating line.
            spots = [o for o in boundary_openings(rows, cols) if o != markers.get(other)]
            markers[symbol] = next((o for o in spots if o.cell == cell), spots[0])
        elif cell is not None and cell != markers[symbol].cell:
            faults.append((no, f'{word} at {cell} does not match the "{symbol}" marker '
                               f"at zone {markers[symbol].cell}", ""))

    walls: list[tuple[int, int]] = []
    nearby = open_adjacency(rows, cols)  # cached per shape; each pair is one lookup
    first_wall = texts.index(WALLS_HEADER) + 1 if WALLS_HEADER in texts else len(lines)
    for no, s in lines[first_wall:]:
        m = _WALL_ITEM_RE.match(s)
        numbers = _numbers(m.groups()) if m else None
        pair = tuple(sorted(numbers)) if numbers else None
        if pair and pair[0] < len(nearby) and pair[1] in nearby[pair[0]]:
            walls.append(pair)
        else:
            faults.append((no, "zones out of bounds or not adjacent" if m
                               else "expected wall pair '* a and b'", s))

    # Every line, prose and fields alike, must equal the maze's own serialization
    # under the whitespace canon; an empty sentinel line catches a length mismatch.
    maze = Maze(rows, cols, frozenset(walls), markers["^"], markers["x"])
    expected = canonical_lines(serialize(maze).text) + [""]
    for (no, got), want in zip(lines + [(lines[-1][0], "")], expected):
        if got != want:
            faults.append((no, f"text deviates from template, expected {want!r}", got))
            break
    if faults:
        raise MalformedDescription(*min(faults, key=lambda fault: fault[0]))
    return maze


def read_utf8(path) -> str:
    """The file's text; a file that is not UTF-8 raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path} is not UTF-8 text: {err}") from None


def load_description(path) -> Maze:
    """Parse a description file; an error keeps its type and names the file."""
    text = read_utf8(path)
    try:
        return parse(text)
    except ValueError as err:
        err.args = (f"{path}: {err}",)
        raise


def render_ascii(maze: Maze, path: list[int] | None = None) -> str:
    """Human-oriented grid drawing with walls, openings, and an optional
    path overlay (path cells are starred)."""
    overlay = set(path or ())
    for cell in overlay:
        check_cell(maze, cell)
    width = max(4, len(str(maze.size - 1)) + 3)
    marks = _marks(maze)

    def cell_label(cell: int) -> str:
        label = str(cell) + ("*" if cell in overlay else "")
        return f"{label:^{width}}"

    def boundary_gap(cell: int, side: Heading) -> str:
        mark = marks.get((cell, side))
        return f"{mark:^{width}}" if mark else "-" * width

    lines = []
    for r in range(maze.rows + 1):
        parts = []
        for c in range(maze.cols):
            if r == 0:
                parts.append(boundary_gap(c, Heading.N))
            elif r == maze.rows:
                parts.append(boundary_gap((r - 1) * maze.cols + c, Heading.S))
            else:
                upper, lower = (r - 1) * maze.cols + c, r * maze.cols + c
                parts.append("-" * width if (upper, lower) in maze.walls else " " * width)
        lines.append("+" + "+".join(parts) + "+")
        if r == maze.rows:
            break
        row_cells = [r * maze.cols + c for c in range(maze.cols)]
        west = marks.get((row_cells[0], Heading.W), "|")
        east = marks.get((row_cells[-1], Heading.E), "|")
        body = ""
        for c, cell in enumerate(row_cells):
            body += cell_label(cell)
            if c + 1 < maze.cols:
                body += "|" if (cell, cell + 1) in maze.walls else " "
        lines.append(west + body + east)
    return "\n".join(lines) + "\n"
