import random
import time
from itertools import islice

import pytest

from mazenav.cli import main
from mazenav.generate import GenConfig, generate
from mazenav.grid import Heading, Maze, MazeError, Opening, internal_adjacencies
from mazenav.instructions import ExitAt, Forward, StepIn, Turn
from mazenav.simulator import execute
from mazenav.solver import (
    Solution,
    UnsolvableMazeError,
    optimal_solutions,
    reference_solution,
    shortest_cell_paths,
    solution_text,
)
from mazenav.textform import serialize

from .reference_impl import bf_distance, bf_optimal_solutions, bf_shortest_paths, emit_instructions


class TestShortestCellPaths:
    def test_worked_maze_unique(self, m0):
        assert shortest_cell_paths(m0) == [[8, 7, 2, 1]]

    def test_no_walls_three_paths(self, m0_nowall):
        paths = shortest_cell_paths(m0_nowall)
        assert sorted(map(tuple, paths)) == [(8, 3, 2, 1), (8, 7, 2, 1), (8, 7, 6, 1)]

    def test_single_cell(self):
        maze = Maze(1, 1, frozenset(), Opening(0, Heading.N), Opening(0, Heading.S))
        assert shortest_cell_paths(maze) == [[0]]

    def test_unsolvable(self):
        # walls 7-8, 8-9, 3-8 isolate the entrance cell
        maze = Maze(2, 5, frozenset({(7, 8), (8, 9), (3, 8)}),
                    Opening(8, Heading.S), Opening(1, Heading.N))
        with pytest.raises(UnsolvableMazeError):
            shortest_cell_paths(maze)

    def test_matches_brute_force(self, m0, m0_nowall):
        for maze in (m0, m0_nowall):
            assert shortest_cell_paths(maze) == bf_shortest_paths(maze)

    def test_matches_brute_force_seeded(self):
        rng = random.Random(99)
        cfg = GenConfig(seed=99, require_unique_optimal=False)
        for _ in range(150):
            maze = generate(cfg, rng)
            assert shortest_cell_paths(maze) == bf_shortest_paths(maze)

    def test_long_corridor_no_recursion(self):
        maze = Maze(1, 1100, frozenset(), Opening(0, Heading.W), Opening(1099, Heading.E))
        assert shortest_cell_paths(maze) == [list(range(1100))]


class TestEmitInstructions:
    def test_worked_path_gives_exact_solution(self, m0, m0_solution):
        assert tuple(emit_instructions(m0, [8, 7, 2, 1])) == m0_solution

    def test_straight_run_merges(self, m0_nowall):
        assert emit_instructions(m0_nowall, [8, 3, 2, 1]) == [
            StepIn(8),
            Forward(3),
            Turn("left"),
            Forward(1),
            Turn("right"),
            ExitAt(1),
        ]

    def test_straight_corridor(self):
        maze = Maze(1, 5, frozenset(), Opening(0, Heading.W), Opening(4, Heading.E))
        assert emit_instructions(maze, [0, 1, 2, 3, 4]) == [
            StepIn(0),
            Forward(4),
            ExitAt(4),
        ]

    def test_reversal_uses_two_turns(self, m0_nowall):
        instrs = emit_instructions(m0_nowall, [8, 3, 8, 7, 2, 1])
        assert instrs.count(Turn("right")) >= 2
        assert execute(m0_nowall, instrs).complete

    @pytest.mark.parametrize(
        "path",
        [[7, 2, 1], [8, 7, 2], [8, 9, 4, 3, 2, 1], []],
    )
    def test_invalid_paths_rejected(self, m0, path):
        with pytest.raises(MazeError):
            emit_instructions(m0, path)

    def test_emitted_sequences_execute(self):
        rng = random.Random(5)
        cfg = GenConfig(seed=5, require_unique_optimal=False)
        for _ in range(150):
            maze = generate(cfg, rng)
            for path in shortest_cell_paths(maze):
                assert execute(maze, emit_instructions(maze, path)).complete


class TestOptimalSolutions:
    def test_worked_maze_single_nine_step(self, m0):
        solutions = list(optimal_solutions(m0))
        assert len(solutions) == 1
        assert len(solutions[0].instructions) == 9
        assert solutions[0].turn_count == 4

    def test_no_wall_variant_tie(self, m0_nowall):
        # [8,3,2,1] and [8,7,6,1] both need 6 instructions; deterministic
        # ordering puts the lexicographically smaller cell path first.
        solutions = list(optimal_solutions(m0_nowall))
        assert [len(s.instructions) for s in solutions] == [6, 6]
        assert solutions[0].cells == (8, 3, 2, 1)
        assert solutions[1].cells == (8, 7, 6, 1)

    def test_ordering_deterministic(self, m0_nowall):
        assert list(optimal_solutions(m0_nowall)) == list(optimal_solutions(m0_nowall))

    def test_generated_unique_optimal(self):
        rng = random.Random(11)
        cfg = GenConfig(seed=11)  # require_unique_optimal defaults on
        for _ in range(60):
            maze = generate(cfg, rng)
            assert len(list(optimal_solutions(maze))) == 1

    def test_minimality_against_brute_force(self):
        rng = random.Random(21)
        cfg = GenConfig(seed=21, require_unique_optimal=False)
        for _ in range(100):
            maze = generate(cfg, rng)
            ref = reference_solution(maze)
            assert len(ref.cells) - 1 == bf_distance(maze)

    # 1,250 mazes over five configs with ties allowed, so mazes with
    # several optima are compared too.
    @pytest.mark.parametrize("cfg", [
        GenConfig(require_unique_optimal=False),
        GenConfig(opposite_sides=False, require_unique_optimal=False),
        GenConfig(rows=3, cols=4, require_unique_optimal=False),
        GenConfig(rows=5, cols=5, wall_count=10, max_path=12, require_unique_optimal=False),
        GenConfig(rows=1, cols=9, wall_count=0, min_path=1, max_path=8,
                  opposite_sides=False, require_unique_optimal=False),
    ], ids=["default", "any-sides", "3x4", "5x5-10-walls", "1x9"])
    def test_matches_oracle_seeded(self, cfg):
        rng = random.Random(31)
        for _ in range(250):
            maze = generate(cfg, rng)
            oracle = bf_optimal_solutions(maze)
            assert list(optimal_solutions(maze)) == oracle
            assert reference_solution(maze) == oracle[0]
            assert len({s.turn_count for s in oracle}) == 1

    def test_open_30x30_grid(self):
        maze = Maze(30, 30, frozenset(), Opening(1, Heading.N), Opening(898, Heading.S))
        solutions = list(optimal_solutions(maze))
        assert len(solutions) == 2
        assert solutions[0].instructions == (
            StepIn(1), Turn("left"), Forward(28), Turn("right"), Forward(898), ExitAt(898),
        )
        assert solutions[1].instructions[:2] == (StepIn(1), Forward(871))

    def test_long_corridor_no_recursion(self):
        maze = Maze(1, 3000, frozenset(), Opening(0, Heading.W), Opening(2999, Heading.E))
        assert reference_solution(maze).instructions == (StepIn(0), Forward(2999), ExitAt(2999))

    def test_solution_invariants(self, m0):
        sol = reference_solution(m0)
        assert isinstance(sol, Solution)
        assert execute(m0, sol.instructions).complete
        assert sol.cells[0] == m0.entrance.cell
        assert sol.cells[-1] == m0.exit.cell


def ladder(k: int) -> Maze:
    """A 3x(2k+1) maze with 2^k tied optima, entered on the west of the
    middle row and left on its east. Column boundary b lies between columns
    b and b + 1; the middle row is walled at every even b and the outer rows
    at every odd b, so each rung goes round above or below a middle wall
    with the same turns."""
    cols = 2 * k + 1
    walls = [(r * cols + b, r * cols + b + 1)
             for b in range(cols - 1) for r in ((1,) if b % 2 == 0 else (0, 2))]
    return Maze(3, cols, frozenset(walls), Opening(cols, Heading.W), Opening(2 * cols - 1, Heading.E))


class TestLadder:
    def test_k4_lists_all_sixteen_optima(self):
        solutions = list(optimal_solutions(ladder(4)))
        assert len(solutions) == 16
        assert solutions == bf_optimal_solutions(ladder(4))

    def test_k16_reference_is_fast(self):
        maze = ladder(16)
        start = time.perf_counter()
        sol = reference_solution(maze)
        assert time.perf_counter() - start < 0.05
        assert execute(maze, sol.instructions).complete

    def test_k200_finishes_with_clean_exit(self):
        maze = ladder(200)
        sol = reference_solution(maze)
        assert len(sol.cells) - 1 == 4 * 200  # four moves per rung
        assert execute(maze, sol.instructions).complete

    def test_cli_solve_prints_reference(self, tmp_path, capsys):
        maze = ladder(16)
        (tmp_path / "ladder.maze").write_text(serialize(maze).text, encoding="utf-8")
        assert main(["--workdir", str(tmp_path), "solve", "--maze", "ladder.maze"]) == 0
        assert capsys.readouterr().out == solution_text(maze) + "\n"


def band(n: int, w: int) -> Maze:
    """An nxn maze walled off outside the diagonal band |row - col| <= w,
    entered north of cell 0 and left south of the last cell. Its optima
    are many: 120 for n=30, w=4 and 77,520 for n=100, w=14."""
    inside = {c for c in range(n * n) if abs(c // n - c % n) <= w}
    walls = [pair for pair in internal_adjacencies(n, n) if not inside.issuperset(pair)]
    return Maze(n, n, frozenset(walls), Opening(0, Heading.N), Opening(n * n - 1, Heading.S))


class TestBand:
    def test_30x30_band_4_yields_120_optima_lazily_in_order(self):
        solutions = optimal_solutions(band(30, 4))
        assert iter(solutions) is solutions  # drawn one at a time, not listed
        cells = [s.cells for s in solutions]
        assert len(cells) == 120
        assert cells == sorted(set(cells))

    def test_100x100_band_14_draws_two_optima_fast(self):
        maze = band(100, 14)
        start = time.perf_counter()
        first, second = islice(optimal_solutions(maze), 2)
        assert time.perf_counter() - start < 1.0
        assert first.cells < second.cells
        assert first == reference_solution(maze)
        for solution in (first, second):
            assert execute(maze, solution.instructions).complete



def test_solution_text_matches_golden(m0, golden_solution):
    assert solution_text(m0) + "\n" == golden_solution
