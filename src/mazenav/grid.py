"""Grid geometry for rectangular room mazes.

Cells are numbered row-major with row 0 on top, so heading N always points
toward lower row indices. Internal walls sit between orthogonally adjacent
cells and are stored as unordered pairs. Entrance and exit are openings in
the outer boundary: a cell plus the compass side that faces off-grid.

This module is the one place that knows the geometry: the clockwise heading
order (CLOCKWISE) and the one step rule, steps(rows, cols), cached per
shape: the cell one step ahead of each cell in each heading, or None off
the grid. The neighbours of every cell (open_adjacency), the openings, the
wall slots the generator samples from (internal_adjacencies), the
simulator's rays and the solver's move headings all read that table.
adjacency(maze) is the one walled-neighbour query: the passable neighbours
of every cell, which the BFS, the solver and the generator read.
boundary_openings(rows, cols), also cached per shape, is the one list of
legal openings; the generator draws both of a maze's openings from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class MazeError(ValueError):
    """Raised for structurally invalid mazes or out-of-bounds queries."""


class Heading(Enum):
    """Compass heading of the navigator (N points toward row 0)."""

    N = "N"
    E = "E"
    S = "S"
    W = "W"

    def left(self) -> "Heading":
        return CLOCKWISE[(CLOCKWISE.index(self) - 1) % 4]

    def right(self) -> "Heading":
        return CLOCKWISE[(CLOCKWISE.index(self) + 1) % 4]

    def opposite(self) -> "Heading":
        return CLOCKWISE[(CLOCKWISE.index(self) + 2) % 4]


# Clockwise as seen from above; "left" turns are counterclockwise.
CLOCKWISE = (Heading.N, Heading.E, Heading.S, Heading.W)


def rotate(heading: Heading, direction: str) -> Heading:
    """Rotate 90 degrees; "left" is counterclockwise viewed from above."""
    if direction == "left":
        return heading.left()
    if direction == "right":
        return heading.right()
    raise ValueError(f"unknown turn direction: {direction!r}")


@dataclass(frozen=True)
class Opening:
    """A gap in the outer boundary: the boundary cell and its off-grid side."""

    cell: int
    side: Heading


@dataclass(frozen=True)
class Pose:
    """Navigator state: current cell plus compass heading."""

    cell: int
    heading: Heading


@dataclass(frozen=True)
class Maze:
    """Immutable maze value; equality and hashing are structural.

    ``walls`` is normalized to a frozenset of ascending (a, b) pairs, so any
    iterable of adjacent cell pairs is accepted at construction time.
    """

    rows: int
    cols: int
    walls: frozenset
    entrance: Opening
    exit: Opening

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise MazeError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        normalized = set()
        for pair in self.walls:
            a, b = pair
            if not (self._in_bounds(a) and self._in_bounds(b)):
                raise MazeError(f"wall pair {pair} out of bounds")
            if b not in open_adjacency(self.rows, self.cols)[a]:
                raise MazeError(f"wall pair {pair} is not orthogonally adjacent")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "walls", frozenset(normalized))
        for label, opening in (("entrance", self.entrance), ("exit", self.exit)):
            if not self._in_bounds(opening.cell):
                raise MazeError(f"{label} cell {opening.cell} out of bounds")
            if steps(self.rows, self.cols)[opening.cell][CLOCKWISE.index(opening.side)] is not None:
                raise MazeError(
                    f"{label} side {opening.side.value} does not face off-grid "
                    f"from cell {opening.cell}"
                )
        if self.entrance == self.exit:
            raise MazeError("entrance and exit must differ as (cell, side) pairs")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def _in_bounds(self, cell: int) -> bool:
        return 0 <= cell < self.rows * self.cols


def check_cell(maze: Maze, cell: int) -> None:
    """Raise MazeError unless ``cell`` lies on the maze's grid."""
    if not 0 <= cell < maze.size:
        raise MazeError(f"cell {cell} out of bounds for {maze.rows}x{maze.cols} grid")


@lru_cache(maxsize=8)
def steps(rows: int, cols: int) -> tuple[tuple[int | None, ...], ...]:
    """The step rule: for every cell of a rows x cols grid, the cell one step
    ahead in each heading of CLOCKWISE, or None where the step leaves the grid."""
    size = rows * cols
    return tuple((cell - cols if cell >= cols else None, cell + 1 if (cell + 1) % cols else None,
                  cell + cols if cell + cols < size else None, cell - 1 if cell % cols else None)
                 for cell in range(size))


@lru_cache(maxsize=8)
def open_adjacency(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Neighbours of every cell of a wall-free rows x cols grid, ascending:
    above, left, right, below. Each row is that cell's row of steps without
    its Nones, and shares its ints."""
    return tuple(tuple(sorted(n for n in ahead if n is not None)) for ahead in steps(rows, cols))


def adjacency(maze: Maze) -> list:
    """Passable neighbours of every cell, ascending: the wall-free grid's,
    shared between mazes of one shape, with fresh lists only for the cells
    beside a wall. Read-only."""
    adj = list(open_adjacency(maze.rows, maze.cols))
    for a, b in maze.walls:
        adj[a] = [n for n in adj[a] if n != b]
        adj[b] = [n for n in adj[b] if n != a]
    return adj


@lru_cache(maxsize=8)
def internal_adjacencies(rows: int, cols: int) -> tuple[tuple[int, int], ...]:
    """All unordered adjacent cell pairs where an internal wall could sit,
    row-major with each cell's right pair before its lower one."""
    return tuple((cell, n) for cell, nearby in enumerate(open_adjacency(rows, cols))
                 for n in nearby if n > cell)


@lru_cache(maxsize=8)
def boundary_openings(rows: int, cols: int) -> tuple[Opening, ...]:
    """Every legal (cell, side) opening on the outer boundary: each column's
    N then S, then each row's W then E."""
    out = []
    for c in range(cols):
        out.append(Opening(c, Heading.N))
        out.append(Opening((rows - 1) * cols + c, Heading.S))
    for r in range(rows):
        out.append(Opening(r * cols, Heading.W))
        out.append(Opening(r * cols + cols - 1, Heading.E))
    return tuple(out)
