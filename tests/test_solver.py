import random

import pytest

from mazenav.generate import GenConfig, generate
from mazenav.grid import Heading, Maze, MazeError, Opening
from mazenav.instructions import ExitAt, Forward, StepIn, Turn
from mazenav.simulator import execute
from mazenav.solver import (
    Solution,
    UnsolvableMazeError,
    emit_instructions,
    optimal_solutions,
    reference_solution,
    shortest_cell_paths,
    solution_text,
)

from .reference_impl import bf_distance, bf_optimal_solutions, bf_shortest_paths


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
        solutions = optimal_solutions(m0)
        assert len(solutions) == 1
        assert len(solutions[0].instructions) == 9
        assert solutions[0].turn_count == 4

    def test_no_wall_variant_tie(self, m0_nowall):
        # [8,3,2,1] and [8,7,6,1] both need 6 instructions; deterministic
        # ordering puts the lexicographically smaller cell path first.
        solutions = optimal_solutions(m0_nowall)
        assert [len(s.instructions) for s in solutions] == [6, 6]
        assert solutions[0].cells == (8, 3, 2, 1)
        assert solutions[1].cells == (8, 7, 6, 1)

    def test_ordering_deterministic(self, m0_nowall):
        assert optimal_solutions(m0_nowall) == optimal_solutions(m0_nowall)

    def test_generated_unique_optimal(self):
        rng = random.Random(11)
        cfg = GenConfig(seed=11)  # require_unique_optimal defaults on
        for _ in range(60):
            maze = generate(cfg, rng)
            assert len(optimal_solutions(maze)) == 1

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
            assert optimal_solutions(maze) == bf_optimal_solutions(maze)

    def test_open_30x30_grid(self):
        maze = Maze(30, 30, frozenset(), Opening(1, Heading.N), Opening(898, Heading.S))
        solutions = optimal_solutions(maze)
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


def test_solution_text_matches_golden(m0, golden_solution):
    assert solution_text(m0) + "\n" == golden_solution
