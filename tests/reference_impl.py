"""Independent brute-force oracles used only by tests.

These reimplement adjacency, path search and instruction emission directly
from the Maze fields. They call no function of mazenav.grid, mazenav.solver
or mazenav.simulator, and share no code with the solver or grid they check:
only data types (Maze, Heading, MazeError, the instruction classes,
Solution). Fine for the tiny grids in this suite; exponential in general.
"""

from __future__ import annotations

from mazenav.grid import Heading, Maze, MazeError
from mazenav.instructions import ExitAt, Forward, Instruction, StepIn, Turn
from mazenav.solver import Solution

# Clockwise as seen from above, and the heading of a one-cell move by its
# (row, column) difference.
_CLOCKWISE = (Heading.N, Heading.E, Heading.S, Heading.W)
_MOVE_HEADINGS = {(-1, 0): Heading.N, (0, 1): Heading.E, (1, 0): Heading.S, (0, -1): Heading.W}


def bf_neighbors(maze: Maze, cell: int) -> list[int]:
    r, c = divmod(cell, maze.cols)
    out = []
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        nr, nc = r + dr, c + dc
        if 0 <= nr < maze.rows and 0 <= nc < maze.cols:
            other = nr * maze.cols + nc
            if (min(cell, other), max(cell, other)) not in maze.walls:
                out.append(other)
    return out


def bf_all_simple_paths(maze: Maze) -> list[list[int]]:
    start, goal = maze.entrance.cell, maze.exit.cell
    paths: list[list[int]] = []
    acc = [start]
    visited = {start}

    def dfs(cell: int) -> None:
        if cell == goal:
            paths.append(list(acc))
            return
        for nxt in bf_neighbors(maze, cell):
            if nxt not in visited:
                visited.add(nxt)
                acc.append(nxt)
                dfs(nxt)
                acc.pop()
                visited.remove(nxt)

    dfs(start)
    return paths


def bf_shortest_paths(maze: Maze) -> list[list[int]]:
    paths = bf_all_simple_paths(maze)
    if not paths:
        return []
    best = min(len(p) for p in paths)
    return sorted(p for p in paths if len(p) == best)


def bf_distance(maze: Maze) -> int | None:
    shortest = bf_shortest_paths(maze)
    return len(shortest[0]) - 1 if shortest else None


def _move_heading(maze: Maze, a: int, b: int) -> Heading:
    """Heading of the move from a to b, two cells bf_neighbors joins."""
    ra, ca = divmod(a, maze.cols)
    rb, cb = divmod(b, maze.cols)
    return _MOVE_HEADINGS[(rb - ra, cb - ca)]


def _turns_to(current: Heading, target: Heading) -> list[Instruction]:
    delta = (_CLOCKWISE.index(target) - _CLOCKWISE.index(current)) % 4
    if delta == 0:
        return []
    if delta == 1:
        return [Turn("right")]
    if delta == 3:
        return [Turn("left")]
    return [Turn("right"), Turn("right")]


def emit_instructions(maze: Maze, cells: list[int] | tuple) -> list[Instruction]:
    """Turn a valid entrance->exit cell path into first-person instructions.

    Consecutive same-heading moves merge into one Forward to the run's last
    cell; a final turn is added when needed to face the exit side. Raises
    MazeError for a path that does not run from entrance to exit through
    open neighbours.
    """
    cells = list(cells)
    if not cells:
        raise MazeError("empty cell path")
    if cells[0] != maze.entrance.cell:
        raise MazeError(f"path starts at {cells[0]}, entrance is {maze.entrance.cell}")
    if cells[-1] != maze.exit.cell:
        raise MazeError(f"path ends at {cells[-1]}, exit is {maze.exit.cell}")
    for a, b in zip(cells, cells[1:]):
        if b not in bf_neighbors(maze, a):
            raise MazeError(f"path blocked between {a} and {b}")

    # Stepping in faces away from the entrance side.
    heading = _CLOCKWISE[(_CLOCKWISE.index(maze.entrance.side) + 2) % 4]
    instrs: list[Instruction] = [StepIn(cells[0])]
    i = 1
    while i < len(cells):
        move = _move_heading(maze, cells[i - 1], cells[i])
        run_end = i
        while run_end + 1 < len(cells) and _move_heading(maze, cells[run_end], cells[run_end + 1]) == move:
            run_end += 1
        instrs.extend(_turns_to(heading, move))
        heading = move
        instrs.append(Forward(cells[run_end]))
        i = run_end + 1
    instrs.extend(_turns_to(heading, maze.exit.side))
    instrs.append(ExitAt(cells[-1]))
    return instrs


def bf_optimal_solutions(maze: Maze) -> list[Solution]:
    """Minimal-instruction solutions by listing every shortest path: emit
    each path's instructions, keep those with the fewest, and sort them by
    (turn count, cell path)."""
    candidates = []
    for path in bf_shortest_paths(maze):
        instrs = emit_instructions(maze, path)
        turns = sum(1 for x in instrs if isinstance(x, Turn))
        candidates.append(Solution(tuple(path), tuple(instrs), turns))
    best = min(len(s.instructions) for s in candidates)
    chosen = [s for s in candidates if len(s.instructions) == best]
    return sorted(chosen, key=lambda s: (s.turn_count, s.cells))
