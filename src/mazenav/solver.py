"""Ground-truth solver: shortest cell paths and minimal instruction sequences.

The reference solution of a maze is the first of its optimal solutions:
among the shortest cell paths, those with the fewest instructions, ordered
by (turn count, cell path). One BFS from the exit, stopped at the entrance,
gives each cell it reaches its successors: the neighbours one move nearer
the exit. Followed from the entrance, these are exactly the moves of the
shortest paths. A cost-to-go over (cell, heading of the last move) states,
filled in that BFS order, holds the fewest instructions still needed: a
move in the current heading adds none, any other move (and the first move,
which always emits a Forward) adds its turns plus one, and the exit adds
the turns to face its side.

Optimal solutions all have the same turn count, so the cell path alone
orders them. A shortest path never reverses, so each heading change costs
one turn and one Forward: instructions = 3 + turns + changes, with turns =
first-move turns (0 or 1) + changes + exit turns (0 to 2). Two optima have
equal instructions, so turns that differ by k mean changes that differ by
-k and first-move plus exit turns that differ by 2k. The net rotation from
the initial heading to the exit side fixes the parity of the turns, so a
nonzero k is at least 2 and 2k exceeds the range 0 to 3 of those turns.

One lazy depth-first walk, _paths, meets the optimal paths in cell path
order, which is therefore the solutions' order: it follows _optimal_moves,
the successors of a (cell, heading) state whose move keeps the instruction
count optimal, smallest cell first. reference_solution draws its first
path and the generator's uniqueness check at most two, so nothing is
listed or sorted. _solution is the only emitter: it turns the headings of
an optimal path's moves into instructions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .grid import CLOCKWISE, Maze, adjacency, check_cell, steps
from .instructions import ExitAt, Forward, Instruction, StepIn, Turn, render_sequence
from .simulator import initial_heading

# The turns from heading index h to heading index d: _TURN_RUNS[(d - h) % 4].
_TURN_RUNS = ((), (Turn("right"),), (Turn("right"), Turn("right")), (Turn("left"),))
_TURNS = tuple(map(len, _TURN_RUNS))


class UnsolvableMazeError(ValueError):
    """No cell path exists from entrance to exit."""


@dataclass(frozen=True)
class Solution:
    """Entrance-to-exit cell path with its first-person instruction sequence."""

    cells: tuple
    instructions: tuple
    turn_count: int


def bfs_distances(maze: Maze, start: int) -> dict[int, int]:
    """Moves from ``start`` to every reachable cell, in BFS order."""
    check_cell(maze, start)
    adj, dist = adjacency(maze), {start: 0}
    layer, step = [start], 1
    while layer:
        after = []
        for cell in layer:
            for nxt in adj[cell]:
                if nxt not in dist:
                    dist[nxt] = step
                    after.append(nxt)
        layer, step = after, step + 1
    return dist


def _successors(maze: Maze) -> dict[int, list[int]]:
    """One BFS from the exit, stopped at the entrance: each cell it reaches,
    in BFS order, with its neighbours one move nearer the exit, ascending."""
    start, goal = maze.entrance.cell, maze.exit.cell
    adj = adjacency(maze)
    dist = {goal: 0}
    succ: dict[int, list[int]] = {}
    layer, nearer = [goal], -1
    while layer:
        after = []
        for cell in layer:
            succ[cell] = nxt = []
            for n in adj[cell]:
                d = dist.get(n)
                if d is None:
                    dist[n] = nearer + 2
                    after.append(n)
                elif d == nearer:
                    nxt.append(n)
            if cell == start:
                return succ
        layer, nearer = after, nearer + 1
    raise UnsolvableMazeError(f"no path from {start} to {goal}")


def _paths(start, moves) -> Iterator[list]:
    """Every walk from state ``start`` to a state without next states, where
    ``moves(state)`` lists the next states in ascending order, as lists of
    states, in ascending order: next states are pushed in reverse, so the
    smallest is popped first. An explicit stack keeps long paths off the
    call stack."""
    stack = [(start, None)]  # (state, node of the path before it)
    while stack:
        state, before = stack.pop()
        node = (state, before)
        if nxt := moves(state):
            stack.extend((s, node) for s in reversed(nxt))
        else:
            path = []
            while node:
                path.append(node[0])
                node = node[1]
            yield path[::-1]


def shortest_cell_paths(maze: Maze) -> list[list[int]]:
    """Every minimal-length cell path entrance -> exit, lexicographic order.

    There are exponentially many on open grids (184,756 on an 11x11 one), so
    the reference solution does not use this list.
    """
    return list(_paths(maze.entrance.cell, _successors(maze).__getitem__))


def _optimal_moves(maze: Maze):
    """The move rule of the walk: a function from a state (cell, heading
    index of the last move; 4 at the entrance, before the first move) to its
    next states on an optimal solution, in ascending cell order.

    A move from (cell, h) in heading d is optimal when the instructions it
    adds, added[h][d], plus the cost-to-go of (next cell, d) equal the
    cost-to-go of (cell, h): the fewest instructions still needed, ExitAt
    not counted.
    """
    succ = _successors(maze)
    first = CLOCKWISE.index(initial_heading(maze))
    exit_side = CLOCKWISE.index(maze.exit.side)
    ahead = steps(maze.rows, maze.cols)  # a move's heading is ahead[cell].index(n)
    # Row 4 is the first move, which always starts a Forward.
    added = [[0 if h == d else _TURNS[(d - h) % 4] + 1 for d in range(4)] for h in range(4)]
    added.append([_TURNS[(d - first) % 4] + 1 for d in range(4)])
    column = list(zip(*added))  # column[d][h] == added[h][d]
    # Successors lie one BFS layer nearer the exit, so they are filled first.
    togo: dict[int, list[int]] = {}
    for cell, nxt in succ.items():
        if not nxt:  # only the exit has no successor
            togo[cell] = [_TURNS[(exit_side - h) % 4] for h in (0, 1, 2, 3, first)]
            continue
        best = None
        for n in nxt:
            d = ahead[cell].index(n)
            t = togo[n][d]
            via = [a + t for a in column[d]]
            best = via if best is None else [a if a < b else b for a, b in zip(via, best)]
        togo[cell] = best

    def moves(state: tuple) -> list[tuple]:
        cell, h = state
        return [(n, d) for n in succ[cell]
                if added[h][d := ahead[cell].index(n)] + togo[n][d] == togo[cell][h]]

    return moves


def _solution(maze: Maze, path: list[tuple]) -> Solution:
    """The solution of an optimal path of (cell, heading index) states.
    Consecutive moves in one heading merge into one Forward to the run's
    last cell; a final turn faces the exit side."""
    cells = tuple([cell for cell, _ in path])  # sized once, not grown: less heap fragmentation
    facing = CLOCKWISE.index(initial_heading(maze))
    instrs: list[Instruction] = [StepIn(cells[0])]
    for i, (_, d) in enumerate(path[1:]):
        if d != path[i][1]:  # a new run; the first move always starts one
            if i:
                instrs.append(Forward(cells[i]))
            instrs += _TURN_RUNS[(d - facing) % 4]
            facing = d
    if len(cells) > 1:
        instrs.append(Forward(cells[-1]))
    instrs += _TURN_RUNS[(CLOCKWISE.index(maze.exit.side) - facing) % 4]
    instrs.append(ExitAt(cells[-1]))
    return Solution(cells, tuple(instrs), sum(type(i) is Turn for i in instrs))


def optimal_solutions(maze: Maze) -> Iterator[Solution]:
    """All minimal-instruction solutions over the shortest cell paths, in
    (turn count, lexicographic cell path) order. The BFS and cost-to-go run
    at the call, so an unsolvable maze raises there; each solution is walked
    when it is drawn."""
    moves = _optimal_moves(maze)
    return (_solution(maze, path) for path in _paths((maze.entrance.cell, 4), moves))


def reference_solution(maze: Maze) -> Solution:
    """The first of optimal_solutions."""
    return _solution(maze, next(_paths((maze.entrance.cell, 4), _optimal_moves(maze))))


def solution_text(maze: Maze) -> str:
    """Canonical text of the reference solution, one line per instruction."""
    return render_sequence(reference_solution(maze).instructions)
