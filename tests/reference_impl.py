"""Independent brute-force oracles used only by tests.

These reimplement adjacency and path search directly from the Maze fields
(no package graph helpers), so they stay independent of the code paths they
check; only emit_instructions, which turns one path into instructions, is
shared. Fine for the tiny grids in this suite; exponential in general.
"""

from __future__ import annotations

from mazenav.grid import Maze
from mazenav.instructions import Turn
from mazenav.solver import Solution, emit_instructions


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
