"""Metamorphic checks of the solver, the simulator and the text form.

A maze and its mirror, 180-degree turn or transpose (tests/variants.py) are
the same maze seen another way, so their optimal solutions, the size of
their reference solutions and the first faults of an answer must map onto
each other. This needs no oracle, so it also holds on grids far too large
for the brute-force one.
"""

from __future__ import annotations

import random

import pytest

from mazenav.grid import Heading, Maze, Opening, boundary_openings, internal_adjacencies
from mazenav.instructions import ExitAt, Forward, Turn
from mazenav.simulator import execute
from mazenav.solver import bfs_distances, optimal_solutions, reference_solution
from mazenav.textform import parse, serialize

from .variants import KINDS, Image

SMALL_SHAPES = ((2, 5), (3, 3), (3, 4), (4, 6), (1, 7), (5, 5))


def random_maze(rng: random.Random, rows: int, cols: int, wall_share: float) -> Maze:
    """A maze with each wall slot walled at ``wall_share`` and two distinct
    boundary openings, drawn again until it can be solved."""
    slots = internal_adjacencies(rows, cols)
    openings = boundary_openings(rows, cols)
    while True:
        walls = frozenset(pair for pair in slots if rng.random() < wall_share)
        entrance, exit_ = rng.sample(openings, 2)
        maze = Maze(rows, cols, walls, entrance, exit_)
        if maze.exit.cell in bfs_distances(maze, maze.entrance.cell):
            return maze


def small_mazes(seed: int, per_shape: int) -> list[Maze]:
    rng = random.Random(seed)
    return [random_maze(rng, rows, cols, 0.3)
            for rows, cols in SMALL_SHAPES for _ in range(per_shape)]


@pytest.mark.parametrize("kind", KINDS)
def test_image_of_the_image_is_the_maze(kind):
    for maze in small_mazes(1, 5):
        image = Image(kind, maze)
        back = Image(kind, image.maze)
        assert back.maze == maze
        assert all(back.cell(image.cell(c)) == c for c in range(maze.size))


@pytest.mark.parametrize("kind", KINDS)
def test_optimal_solutions_map(kind):
    for maze in small_mazes(2, 30):
        image = Image(kind, maze)
        mapped = {(image.cells(s.cells), image.instructions(s.instructions), s.turn_count)
                  for s in optimal_solutions(maze)}
        theirs = {(s.cells, s.instructions, s.turn_count) for s in optimal_solutions(image.maze)}
        assert mapped == theirs, (kind, maze)


def test_transpose_of_the_worked_maze(m0, m0_solution):
    image = Image("transpose", m0)
    assert (image.maze.rows, image.maze.cols) == (5, 2)
    assert image.maze.entrance == Opening(image.cell(8), Heading.E)
    (solution,) = optimal_solutions(image.maze)
    assert solution.instructions == image.instructions(m0_solution)
    assert [i.direction for i in solution.instructions if isinstance(i, Turn)] == [
        "right", "left", "right", "left"]


@pytest.mark.parametrize("rows, cols, kinds", [
    (30, 70, KINDS),
    (100, 100, KINDS),
    (300, 300, ("rot180",)),
], ids=["30x70", "100x100", "300x300"])
def test_reference_solution_size_maps_on_large_grids(rows, cols, kinds):
    maze = random_maze(random.Random(rows * cols), rows, cols, 0.25)
    reference = reference_solution(maze)
    for kind in kinds:
        image = Image(kind, maze)
        theirs = reference_solution(image.maze)
        assert (len(theirs.cells), len(theirs.instructions), theirs.turn_count) == (
            len(reference.cells), len(reference.instructions), reference.turn_count), kind
        # The mapped reference is an optimal route of the image as well.
        assert execute(image.maze, image.instructions(reference.instructions)).complete


def perturbed(maze: Maze, instructions: tuple, rng: random.Random) -> list[tuple]:
    """Answers that go wrong in each way an answer can: a wrong forward
    target (on or off the grid), a flipped turn, a dropped instruction, a
    wrong exit cell, a missing exit."""
    out = []
    forwards = [i for i, x in enumerate(instructions) if isinstance(x, Forward)]
    turns = [i for i, x in enumerate(instructions) if isinstance(x, Turn)]
    if forwards:
        i = rng.choice(forwards)
        for target in (rng.randrange(maze.size), maze.size + 3):
            out.append(instructions[:i] + (Forward(target),) + instructions[i + 1:])
    if turns:
        i = rng.choice(turns)
        other = "left" if instructions[i].direction == "right" else "right"
        out.append(instructions[:i] + (Turn(other),) + instructions[i + 1:])
    i = rng.randrange(len(instructions))
    out.append(instructions[:i] + instructions[i + 1:])
    out.append(instructions[:-1] + (ExitAt(rng.randrange(maze.size)),))
    out.append(instructions[:-1])
    return out


@pytest.mark.parametrize("lenient_exit", [False, True])
def test_first_faults_map(lenient_exit):
    rng = random.Random(3)
    for maze in small_mazes(3, 20):
        for answer in perturbed(maze, reference_solution(maze).instructions, rng):
            trace = execute(maze, answer, lenient_exit=lenient_exit)
            for kind in KINDS:
                image = Image(kind, maze)
                theirs = execute(image.maze, image.instructions(answer), lenient_exit=lenient_exit)
                assert theirs.failed_at == trace.failed_at, (kind, maze, answer)
                assert (theirs.fault and theirs.fault.kind) == (trace.fault and trace.fault.kind)
                assert theirs.poses == tuple(map(image.pose, trace.poses))


def test_images_round_trip_through_the_text_form():
    mazes = small_mazes(4, 5) + [random_maze(random.Random(5), 12, 20, 0.3)]
    for maze in mazes:
        for kind in KINDS:
            image = Image(kind, maze).maze
            assert parse(serialize(image).text) == image
