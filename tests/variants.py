"""Symmetric images of a maze: a left-right mirror, a 180-degree turn and a
transpose (rows become columns).

Each symmetry maps the cells, headings and instructions of a maze to those
of its image in one way, so a solution or a first fault of a maze maps to
one of the image. A mirror and a transpose are reflections: they reverse
the clockwise heading order, so a left turn maps to a right one. A
180-degree turn is a rotation and keeps every turn.
"""

from __future__ import annotations

from mazenav.grid import Heading, Maze, Opening, Pose
from mazenav.instructions import ExitAt, Forward, StepIn, Turn

N, E, S, W = Heading.N, Heading.E, Heading.S, Heading.W

KINDS = ("mirror", "rot180", "transpose")
_HEADINGS = {
    "mirror": {N: N, S: S, E: W, W: E},
    "rot180": {N: S, S: N, E: W, W: E},
    "transpose": {N: W, W: N, E: S, S: E},
}
_OTHER_TURN = {"left": "right", "right": "left"}


class Image:
    """One symmetry applied to one maze: ``maze`` is the image, and the
    methods map the original's cells, poses and instructions onto it."""

    def __init__(self, kind: str, maze: Maze):
        self.kind = kind
        self.rows, self.cols = maze.rows, maze.cols
        self.headings = _HEADINGS[kind]
        rows, cols = (maze.cols, maze.rows) if kind == "transpose" else (maze.rows, maze.cols)
        self.maze = Maze(
            rows, cols,
            frozenset((self.cell(a), self.cell(b)) for a, b in maze.walls),
            self.opening(maze.entrance), self.opening(maze.exit),
        )

    def cell(self, cell: int) -> int:
        """The image of a cell; a position off the grid stays as it is, so
        it is off the image's grid of the same size too."""
        if not 0 <= cell < self.rows * self.cols:
            return cell
        r, c = divmod(cell, self.cols)
        if self.kind == "mirror":
            return r * self.cols + self.cols - 1 - c
        if self.kind == "rot180":
            return self.rows * self.cols - 1 - cell
        return c * self.rows + r

    def cells(self, cells) -> tuple:
        return tuple(map(self.cell, cells))

    def opening(self, opening: Opening) -> Opening:
        return Opening(self.cell(opening.cell), self.headings[opening.side])

    def pose(self, pose: Pose) -> Pose:
        return Pose(self.cell(pose.cell), self.headings[pose.heading])

    def instruction(self, instruction):
        if isinstance(instruction, Turn):
            if self.kind == "rot180":
                return instruction
            return Turn(_OTHER_TURN[instruction.direction])
        kind = type(instruction)
        assert kind in (StepIn, Forward, ExitAt), instruction
        return kind(self.cell(instruction.cell))

    def instructions(self, instructions) -> tuple:
        return tuple(map(self.instruction, instructions))
