import pytest
from hypothesis import given, strategies as st

from mazenav.grid import Heading, Maze, MazeError, Opening, Pose
from mazenav.instructions import ExitAt, Forward, StepIn, Turn
from mazenav.simulator import Fault, FaultKind, execute, initial_heading, step


@pytest.mark.parametrize(
    ("side", "expected"),
    [
        (Heading.S, Heading.N),
        (Heading.N, Heading.S),
        (Heading.W, Heading.E),
        (Heading.E, Heading.W),
    ],
)
def test_initial_heading_faces_inward(side, expected):
    cell = {Heading.S: 8, Heading.N: 1, Heading.W: 5, Heading.E: 9}[side]
    maze = Maze(2, 5, frozenset(), Opening(cell, side), Opening(0, Heading.N))
    assert initial_heading(maze) == expected


class TestStep:
    def test_step_in(self, m0):
        out = step(m0, None, StepIn(8))
        assert out == Pose(8, Heading.N)

    def test_step_in_wrong_cell(self, m0):
        out = step(m0, None, StepIn(7))
        assert out.kind == FaultKind.WRONG_START_CELL

    def test_step_in_after_start(self, m0):
        out = step(m0, Pose(8, Heading.N), StepIn(8))
        assert out.kind == FaultKind.WRONG_START_CELL

    def test_forward_along_ray(self, m0):
        out = step(m0, Pose(8, Heading.W), Forward(7))
        assert out == Pose(7, Heading.W)

    def test_forward_not_on_ray(self, m0):
        out = step(m0, Pose(8, Heading.N), Forward(9))
        assert out.kind == FaultKind.NOT_ON_RAY

    def test_forward_to_current_cell(self, m0):
        out = step(m0, Pose(8, Heading.N), Forward(8))
        assert out.kind == FaultKind.NOT_ON_RAY

    def test_forward_through_wall(self, m0):
        out = step(m0, Pose(8, Heading.W), Forward(6))
        assert out.kind == FaultKind.WALL_BLOCKED
        assert "6" in out.detail and "7" in out.detail

    def test_forward_off_grid(self, m0):
        out = step(m0, Pose(8, Heading.N), Forward(99))
        assert out.kind == FaultKind.OFF_GRID

    def test_forward_from_a_pose_off_the_grid(self, m0):
        for cell in (-1, 10):
            with pytest.raises(MazeError, match=f"cell {cell} out of bounds"):
                step(m0, Pose(cell, Heading.N), Forward(3))

    def test_multi_cell_forward(self, m0_nowall):
        out = step(m0_nowall, Pose(8, Heading.W), Forward(5))
        assert out == Pose(5, Heading.W)

    def test_turn_requires_pose(self, m0):
        assert step(m0, None, Turn("left")).kind == FaultKind.NOT_STARTED

    def test_exit_requires_pose(self, m0):
        assert step(m0, None, ExitAt(1)).kind == FaultKind.NOT_STARTED

    def test_exit_wrong_heading(self, m0):
        out = step(m0, Pose(1, Heading.W), ExitAt(1))
        assert out.kind == FaultKind.WRONG_EXIT_HEADING

    def test_exit_lenient_heading(self, m0):
        out = step(m0, Pose(1, Heading.W), ExitAt(1), lenient_exit=True)
        assert out is None

    def test_exit_wrong_cell(self, m0):
        out = step(m0, Pose(3, Heading.N), ExitAt(1))
        assert out.kind == FaultKind.WRONG_EXIT_CELL

    def test_exit_right_cell_wrong_target(self, m0):
        out = step(m0, Pose(3, Heading.N), ExitAt(3))
        assert out.kind == FaultKind.WRONG_EXIT_CELL

    @given(st.sampled_from(list(Heading)), st.sampled_from(["left", "right"]))
    def test_turn_never_moves(self, heading, direction):
        maze = Maze(2, 5, frozenset(), Opening(8, Heading.S), Opening(1, Heading.N))
        out = step(maze, Pose(7, heading), Turn(direction))
        assert out.cell == 7

    def test_forward_never_turns(self, m0_nowall):
        out = step(m0_nowall, Pose(9, Heading.W), Forward(5))
        assert out.heading == Heading.W


class TestLineGrids:
    """Forward on one-row and one-column grids, walls 2|3 and 4|5."""

    @pytest.fixture(params=[(1, 7, Heading.W, Heading.E), (7, 1, Heading.N, Heading.S)],
                    ids=["1x7", "7x1"])
    def line(self, request):
        rows, cols, back, ahead = request.param
        maze = Maze(rows, cols, frozenset({(2, 3), (4, 5)}), Opening(0, back), Opening(6, ahead))
        return maze, ahead, back

    def test_forward_along_ray(self, line):
        maze, ahead, back = line
        assert step(maze, Pose(0, ahead), Forward(2)) == Pose(2, ahead)
        assert step(maze, Pose(2, back), Forward(0)) == Pose(0, back)

    def test_forward_past_the_edge(self, line):
        maze, ahead, back = line
        for pose in (Pose(1, back), Pose(1, ahead.left()), Pose(1, ahead.right())):
            assert step(maze, pose, Forward(3)) == Fault(
                FaultKind.NOT_ON_RAY,
                f"position 3 is not straight ahead from 1 heading {pose.heading.value}")

    def test_forward_to_current_cell(self, line):
        maze, ahead, back = line
        for heading in (ahead, back):
            assert step(maze, Pose(3, heading), Forward(3)) == Fault(
                FaultKind.NOT_ON_RAY, f"position 3 is not straight ahead from 3 heading {heading.value}")

    def test_forward_through_two_walls_names_the_first(self, line):
        maze, ahead, back = line
        assert step(maze, Pose(1, ahead), Forward(6)) == Fault(
            FaultKind.WALL_BLOCKED, "wall between 2 and 3")
        assert step(maze, Pose(6, back), Forward(0)) == Fault(
            FaultKind.WALL_BLOCKED, "wall between 5 and 4")


class TestExecute:
    def test_worked_solution_completes(self, m0, m0_solution):
        trace = execute(m0, m0_solution)
        assert trace.complete
        assert trace.fault is None
        assert [p.cell for p in trace.poses] == [8, 8, 7, 7, 2, 2, 1, 1]

    def test_empty_sequence(self, m0):
        trace = execute(m0, [])
        assert not trace.complete
        assert trace.failed_at == 0
        assert trace.fault.kind == FaultKind.NOT_STARTED

    def test_wrong_exit_cell_mid_run(self, m0):
        trace = execute(m0, [StepIn(8), Forward(3), ExitAt(1)])
        assert trace.failed_at == 2
        assert trace.fault.kind == FaultKind.WRONG_EXIT_CELL
        assert [p.cell for p in trace.poses] == [8, 3]

    def test_instruction_after_exit(self, m0, m0_solution):
        trace = execute(m0, list(m0_solution) + [Turn("left")])
        assert trace.failed_at == len(m0_solution)
        assert trace.fault.kind == FaultKind.ALREADY_EXITED

    def test_ran_out_without_exit(self, m0):
        trace = execute(m0, [StepIn(8)])
        assert not trace.complete
        assert trace.failed_at == 1
        assert trace.fault is None

    def test_consecutive_poses_passable(self, m0, m0_solution):
        from mazenav.grid import adjacency

        adj = adjacency(m0)
        trace = execute(m0, m0_solution)
        for a, b in zip(trace.poses, trace.poses[1:]):
            assert a.cell == b.cell or b.cell in adj[a.cell]

    def test_pure_and_deterministic(self, m0, m0_solution):
        assert execute(m0, m0_solution) == execute(m0, m0_solution)

    def test_lenient_exit_flag(self, m0):
        # stop one orienting turn short of the strict solution
        instrs = [StepIn(8), Turn("left"), Forward(7), Turn("right"), Forward(2),
                  Turn("left"), Forward(1), ExitAt(1)]
        assert not execute(m0, instrs).complete
        assert execute(m0, instrs, lenient_exit=True).complete

    def test_trace_serializes(self, m0, m0_solution):
        data = execute(m0, m0_solution).to_dict()
        assert data["failed_at"] is None
        assert data["poses"][0] == [8, "N"]
