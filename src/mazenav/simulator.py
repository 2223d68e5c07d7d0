"""First-person execution of instruction sequences against a maze.

All violations are reported as Fault values rather than exceptions so that
scoring can pinpoint the first error. ``step`` returns the new Pose, the
Fault it meets, or None when the navigator leaves through the exit; a Forward
finds its own in one walk of grid.steps, the one step rule. The fault kinds
form a closed set; PROVIDER_ERROR is never produced here but reuses the same
vocabulary for trials whose transport failed before any instruction existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .grid import CLOCKWISE, Heading, Maze, Pose, check_cell, rotate, steps
from .instructions import ExitAt, Forward, Instruction, StepIn, Turn


class FaultKind(Enum):
    WALL_BLOCKED = "WallBlocked"
    OFF_GRID = "OffGrid"
    NOT_ON_RAY = "NotOnRay"
    NOT_STARTED = "NotStarted"
    ALREADY_EXITED = "AlreadyExited"
    WRONG_START_CELL = "WrongStartCell"
    WRONG_EXIT_CELL = "WrongExitCell"
    WRONG_EXIT_HEADING = "WrongExitHeading"
    UNPARSEABLE_STEP = "UnparseableStep"
    PROVIDER_ERROR = "ProviderError"


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    detail: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "detail": self.detail}


@dataclass(frozen=True)
class ExecutionTrace:
    """Poses after each in-maze step plus where (if anywhere) execution failed.

    ``failed_at`` is None only for a clean exit. A sequence that runs out of
    instructions without exiting gets failed_at = len(instructions) and no
    fault; the exit instruction itself contributes no pose (the navigator
    leaves the grid).
    """

    poses: tuple
    failed_at: int | None
    fault: Fault | None

    @property
    def complete(self) -> bool:
        return self.failed_at is None

    def to_dict(self) -> dict:
        return {
            "poses": [[p.cell, p.heading.value] for p in self.poses],
            "failed_at": self.failed_at,
            "fault": self.fault.to_dict() if self.fault else None,
        }


def initial_heading(maze: Maze) -> Heading:
    """Heading after stepping in: facing into the grid from the entrance side."""
    return maze.entrance.side.opposite()


def step(
    maze: Maze, pose: Pose | None, instr: Instruction, *, lenient_exit: bool = False
) -> Pose | Fault | None:
    """Execute one instruction from ``pose`` (None = not yet stepped in).

    Returns the new pose, the fault met, or None for a clean exit.
    """
    if isinstance(instr, StepIn):
        if pose is not None:
            return Fault(FaultKind.WRONG_START_CELL,
                         f"step-in at {instr.cell} after navigation already started")
        if instr.cell != maze.entrance.cell:
            return Fault(FaultKind.WRONG_START_CELL,
                         f"stepped into {instr.cell}, entrance is {maze.entrance.cell}")
        return Pose(instr.cell, initial_heading(maze))

    if pose is None:
        return Fault(FaultKind.NOT_STARTED, f"{type(instr).__name__} before stepping in")

    if isinstance(instr, Turn):
        return Pose(pose.cell, rotate(pose.heading, instr.direction))

    if isinstance(instr, Forward):
        if not 0 <= instr.cell < maze.size:
            return Fault(FaultKind.OFF_GRID, f"position {instr.cell} is outside the grid")
        check_cell(maze, pose.cell)
        # The grid edge before the target is NotOnRay; the first wall on the way, WallBlocked.
        ahead, d = steps(maze.rows, maze.cols), CLOCKWISE.index(pose.heading)
        prev, wall = pose.cell, ""
        while (cell := ahead[prev][d]) is not None:
            if not wall and (min(prev, cell), max(prev, cell)) in maze.walls:
                wall = f"wall between {prev} and {cell}"
            if cell == instr.cell:
                if wall:
                    return Fault(FaultKind.WALL_BLOCKED, wall)
                return Pose(cell, pose.heading)
            prev = cell
        return Fault(FaultKind.NOT_ON_RAY,
                     f"position {instr.cell} is not straight ahead from {pose.cell} "
                     f"heading {pose.heading.value}")

    if isinstance(instr, ExitAt):
        if pose.cell != instr.cell or instr.cell != maze.exit.cell:
            return Fault(FaultKind.WRONG_EXIT_CELL,
                         f"exit requested at {instr.cell} while at {pose.cell}; "
                         f"exit is at {maze.exit.cell}")
        if not lenient_exit and pose.heading != maze.exit.side:
            return Fault(FaultKind.WRONG_EXIT_HEADING,
                         f"facing {pose.heading.value}, exit side is {maze.exit.side.value}")
        return None

    raise TypeError(f"not an instruction: {instr!r}")


def execute(
    maze: Maze, instrs: list[Instruction] | tuple, *, lenient_exit: bool = False
) -> ExecutionTrace:
    """Run instructions in order, stopping at the first fault.

    Complete iff every step succeeded and the final one was a valid exit.
    An empty sequence is, by convention, a NotStarted failure at index 0.
    """
    if not instrs:
        return ExecutionTrace((), 0, Fault(FaultKind.NOT_STARTED, "empty instruction sequence"))
    poses: list[Pose] = []
    for index, instr in enumerate(instrs):
        outcome = step(maze, poses[-1] if poses else None, instr, lenient_exit=lenient_exit)
        if isinstance(outcome, Fault):
            return ExecutionTrace(tuple(poses), index, outcome)
        if outcome is None:
            if index + 1 < len(instrs):
                return ExecutionTrace(tuple(poses), index + 1, Fault(
                    FaultKind.ALREADY_EXITED, "instruction after leaving the maze"))
            return ExecutionTrace(tuple(poses), None, None)
        poses.append(outcome)
    return ExecutionTrace(tuple(poses), len(instrs), None)
