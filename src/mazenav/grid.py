"""Grid geometry for rectangular room mazes.

Cells are numbered row-major with row 0 on top, so heading N always points
toward lower row indices. Internal walls sit between orthogonally adjacent
cells and are stored as unordered pairs. Entrance and exit are openings in
the outer boundary: a cell plus the compass side that faces off-grid.

This module is the one place that knows the geometry: the clockwise heading
order (CLOCKWISE), the neighbours of every cell of a shape (open_adjacency,
cached per shape, and adjacency, its walled view for one maze) and the wall
slots the generator samples from (internal_adjacencies). Two cells touch
when one is in the other's row of open_adjacency.
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

    @property
    def delta(self) -> tuple[int, int]:
        """(row, col) increment of one step in this heading."""
        return _DELTAS[self]

    def left(self) -> "Heading":
        return CLOCKWISE[(CLOCKWISE.index(self) - 1) % 4]

    def right(self) -> "Heading":
        return CLOCKWISE[(CLOCKWISE.index(self) + 1) % 4]

    def opposite(self) -> "Heading":
        return CLOCKWISE[(CLOCKWISE.index(self) + 2) % 4]


# Clockwise as seen from above; "left" turns are counterclockwise.
CLOCKWISE = (Heading.N, Heading.E, Heading.S, Heading.W)
_DELTAS = {
    Heading.N: (-1, 0),
    Heading.E: (0, 1),
    Heading.S: (1, 0),
    Heading.W: (0, -1),
}


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

    rows: int = 2
    cols: int = 5
    walls: frozenset = frozenset()
    entrance: Opening = Opening(0, Heading.N)
    exit: Opening = Opening(0, Heading.N)

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
            if not self._faces_off_grid(opening):
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

    def _faces_off_grid(self, opening: Opening) -> bool:
        r, c = divmod(opening.cell, self.cols)
        dr, dc = opening.side.delta
        nr, nc = r + dr, c + dc
        return not (0 <= nr < self.rows and 0 <= nc < self.cols)


def cell_rc(maze: Maze, cell: int) -> tuple[int, int]:
    """(row, col) of a cell index; raises on out-of-bounds."""
    _check_bounds(maze, cell)
    return divmod(cell, maze.cols)


def _check_bounds(maze: Maze, cell: int) -> None:
    if not 0 <= cell < maze.size:
        raise MazeError(f"cell {cell} out of bounds for {maze.rows}x{maze.cols} grid")


def adjacent(maze: Maze, a: int, b: int) -> bool:
    _check_bounds(maze, a)
    _check_bounds(maze, b)
    return b in open_adjacency(maze.rows, maze.cols)[a]


def passable(maze: Maze, a: int, b: int) -> bool:
    """True iff a and b are orthogonal neighbors with no wall between them."""
    return adjacent(maze, a, b) and (min(a, b), max(a, b)) not in maze.walls


def neighbors(maze: Maze, cell: int) -> list[int]:
    """In-bounds orthogonal neighbors reachable from ``cell``, ascending."""
    _check_bounds(maze, cell)
    return [n for n in open_adjacency(maze.rows, maze.cols)[cell]
            if (min(cell, n), max(cell, n)) not in maze.walls]


@lru_cache(maxsize=8)
def open_adjacency(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Neighbours of every cell of a wall-free rows x cols grid, ascending:
    above, left, right, below."""
    size = rows * cols
    return tuple(
        tuple(n for n, ok in ((cell - cols, cell >= cols), (cell - 1, cell % cols),
                              (cell + 1, (cell + 1) % cols), (cell + cols, cell + cols < size)) if ok)
        for cell in range(size)
    )


def adjacency(maze: Maze) -> list:
    """Passable neighbours of every cell, ascending: the wall-free grid's,
    shared between mazes of one shape, with fresh lists only for the cells
    beside a wall. Read-only."""
    adj = list(open_adjacency(maze.rows, maze.cols))
    for a, b in maze.walls:
        adj[a] = [n for n in adj[a] if n != b]
        adj[b] = [n for n in adj[b] if n != a]
    return adj


def step_cell(maze: Maze, cell: int, heading: Heading) -> int | None:
    """Cell one step ahead in ``heading``, or None when that leaves the grid."""
    r, c = cell_rc(maze, cell)
    dr, dc = heading.delta
    nr, nc = r + dr, c + dc
    if 0 <= nr < maze.rows and 0 <= nc < maze.cols:
        return nr * maze.cols + nc
    return None


@lru_cache(maxsize=8)
def internal_adjacencies(rows: int, cols: int) -> tuple[tuple[int, int], ...]:
    """All unordered adjacent cell pairs where an internal wall could sit,
    row-major with each cell's right pair before its lower one."""
    return tuple((cell, n) for cell, nearby in enumerate(open_adjacency(rows, cols))
                 for n in nearby if n > cell)


def boundary_openings(rows: int, cols: int) -> list[Opening]:
    """Every legal (cell, side) opening on the outer boundary."""
    out = []
    for c in range(cols):
        out.append(Opening(c, Heading.N))
        out.append(Opening((rows - 1) * cols + c, Heading.S))
    for r in range(rows):
        out.append(Opening(r * cols, Heading.W))
        out.append(Opening(r * cols + cols - 1, Heading.E))
    return out
