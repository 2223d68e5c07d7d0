"""Ground-truth solver: shortest cell paths and minimal instruction sequences.

The reference solution for a maze is the first entry of optimal_solutions:
among the shortest cell paths, those with the fewest instructions, sorted by
(turn count, cell path). optimal_solutions never lists every shortest path.
Two BFS passes, from the entrance and from the exit, give the DAG of
shortest-path moves. A cost-to-go over (cell, heading of the last move)
states, filled in descending BFS layers, holds the fewest instructions still
needed: a move in the current heading adds none, any other move (and the
first move, which always emits a Forward) adds its turns plus one, and the
exit adds the turns to face its side. A walk with an explicit stack then
follows only the moves that keep that optimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .grid import Heading, Maze, MazeError, cell_rc, passable
from .instructions import ExitAt, Forward, Instruction, StepIn, Turn, render_sequence
from .simulator import initial_heading

_CLOCKWISE = (Heading.N, Heading.E, Heading.S, Heading.W)
# Turns from heading index h to heading index d: _TURNS[(d - h) % 4].
_TURNS = (0, 1, 2, 1)


class UnsolvableMazeError(ValueError):
    """No cell path exists from entrance to exit."""


@dataclass(frozen=True)
class Solution:
    """Entrance-to-exit cell path with its first-person instruction sequence."""

    cells: tuple
    instructions: tuple
    turn_count: int


def _adjacency(maze: Maze) -> list[list[int]]:
    """Passable neighbours of every cell, ascending, in one pass over the grid."""
    size, cols, walls = maze.size, maze.cols, maze.walls
    adj: list[list[int]] = [[] for _ in range(size)]
    for cell in range(size):
        # Linking each cell to its right and lower neighbours in ascending
        # cell order leaves every list ascending: above, left, right, below.
        if (cell + 1) % cols and (cell, cell + 1) not in walls:
            adj[cell].append(cell + 1)
            adj[cell + 1].append(cell)
        if cell + cols < size and (cell, cell + cols) not in walls:
            adj[cell].append(cell + cols)
            adj[cell + cols].append(cell)
    return adj


def _bfs(adj: list[list[int]], start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        step = dist[cell] + 1
        for nxt in adj[cell]:
            if nxt not in dist:
                dist[nxt] = step
                queue.append(nxt)
    return dist


def bfs_distances(maze: Maze, start: int) -> dict[int, int]:
    """Moves from ``start`` to every reachable cell, in BFS order."""
    cell_rc(maze, start)  # bounds check
    return _bfs(_adjacency(maze), start)


def _shortest_dag(maze: Maze) -> tuple[list[list[int]], dict[int, int]]:
    """The moves of the shortest entrance -> exit paths, as ascending
    successor lists, and the entrance distances in BFS order."""
    start, goal = maze.entrance.cell, maze.exit.cell
    adj = _adjacency(maze)
    dist = _bfs(adj, start)
    if goal not in dist:
        raise UnsolvableMazeError(f"no path from {start} to {goal}")
    to_goal = _bfs(adj, goal)
    succ: list[list[int]] = [[] for _ in adj]
    for cell, d in dist.items():
        if d + to_goal[cell] == dist[goal]:
            # A neighbour one move closer to the goal is one move further
            # from the entrance too, or a shorter path would exist.
            succ[cell] = [n for n in adj[cell] if to_goal[n] == to_goal[cell] - 1]
    return succ, dist


def _paths(start: tuple, goal: int, moves) -> list[list[int]]:
    """Cell paths of every walk from state ``start`` to a state at cell
    ``goal``, where ``moves(state)`` lists the next states and a state's
    first item is its cell. An explicit stack keeps long paths off the
    call stack."""
    paths = []
    stack = [(start, None)]  # (state, node of the path before it)
    while stack:
        state, before = stack.pop()
        node = (state[0], before)
        if state[0] == goal:
            path = []
            while node:
                path.append(node[0])
                node = node[1]
            paths.append(path[::-1])
        else:
            stack.extend((nxt, node) for nxt in moves(state))
    return paths


def shortest_cell_paths(maze: Maze) -> list[list[int]]:
    """Every minimal-length cell path entrance -> exit, lexicographic order.

    There are exponentially many on open grids (184,756 on an 11x11 one), so
    the reference solution no longer uses this list.
    """
    succ, _ = _shortest_dag(maze)
    return sorted(_paths((maze.entrance.cell,), maze.exit.cell, lambda s: [(n,) for n in succ[s[0]]]))


def _move_heading(maze: Maze, a: int, b: int) -> Heading:
    ra, ca = cell_rc(maze, a)
    rb, cb = cell_rc(maze, b)
    for h in _CLOCKWISE:
        if (rb - ra, cb - ca) == h.delta:
            return h
    raise MazeError(f"cells {a} and {b} are not adjacent")


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
    cell; a final turn is added when needed to face the exit side.
    """
    cells = list(cells)
    if not cells:
        raise MazeError("empty cell path")
    if cells[0] != maze.entrance.cell:
        raise MazeError(f"path starts at {cells[0]}, entrance is {maze.entrance.cell}")
    if cells[-1] != maze.exit.cell:
        raise MazeError(f"path ends at {cells[-1]}, exit is {maze.exit.cell}")
    for a, b in zip(cells, cells[1:]):
        if not passable(maze, a, b):
            raise MazeError(f"path blocked between {a} and {b}")

    heading = initial_heading(maze)
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


def optimal_solutions(maze: Maze) -> list[Solution]:
    """All minimal-instruction solutions over the shortest cell paths,
    sorted by (turn count, lexicographic cell path)."""
    start, goal, cols = maze.entrance.cell, maze.exit.cell, maze.cols
    succ, dist = _shortest_dag(maze)
    first = _CLOCKWISE.index(initial_heading(maze))
    exit_side = _CLOCKWISE.index(maze.exit.side)

    def heading(a: int, b: int) -> int:
        # Vertical first: on a one-column grid b - a == 1 is a move south.
        return 0 if b == a - cols else 2 if b == a + cols else 1 if b == a + 1 else 3

    # added[h][d]: instructions that a move in heading d adds after heading
    # h. Row 4 is the first move, which always starts a Forward.
    added = [[0 if h == d else _TURNS[(d - h) % 4] + 1 for d in range(4)] for h in range(4)]
    added.append([_TURNS[(d - first) % 4] + 1 for d in range(4)])
    # togo[cell][h]: the fewest instructions still needed after arriving at
    # cell with heading h (4: at the entrance, before the first move),
    # ExitAt not counted. Successors lie one BFS layer
    # further out, so a pass in descending distance fills them first.
    togo = {goal: [_TURNS[(exit_side - h) % 4] for h in (0, 1, 2, 3, first)]}
    column = list(zip(*added))  # column[d][h] == added[h][d]
    for cell in reversed(dist):
        if succ[cell]:
            via = []  # per successor, the cost from cell for each heading h
            for n in succ[cell]:
                d = heading(cell, n)
                via.append([c + togo[n][d] for c in column[d]])
            togo[cell] = [min(costs) for costs in zip(*via)]

    def moves(state: tuple) -> list[tuple]:
        cell, h = state
        return [(n, d) for n in succ[cell]
                if added[h][d := heading(cell, n)] + togo[n][d] == togo[cell][h]]

    solutions = []
    for path in _paths((start, 4), goal, moves):
        instrs = emit_instructions(maze, path)
        turns = sum(1 for x in instrs if isinstance(x, Turn))
        solutions.append(Solution(tuple(path), tuple(instrs), turns))
    return sorted(solutions, key=lambda s: (s.turn_count, s.cells))


def reference_solution(maze: Maze) -> Solution:
    return optimal_solutions(maze)[0]


def solution_text(maze: Maze) -> str:
    """Canonical text of the reference solution, one line per instruction."""
    return render_sequence(reference_solution(maze).instructions)
