import pytest
from hypothesis import given, strategies as st

from mazenav.grid import (
    Heading,
    Maze,
    MazeError,
    Opening,
    adjacency,
    boundary_openings,
    internal_adjacencies,
    rotate,
)

headings = st.sampled_from(list(Heading))


def passable(maze, a, b):
    return b in adjacency(maze)[a]


class TestPassable:
    def test_open_pair(self, m0):
        assert passable(m0, 7, 8) is True

    def test_walled_pair(self, m0):
        assert passable(m0, 8, 9) is False

    def test_non_adjacent(self, m0):
        assert passable(m0, 0, 9) is False

    def test_symmetric(self, m0):
        for a in range(m0.size):
            for b in range(m0.size):
                assert passable(m0, a, b) == passable(m0, b, a)


class TestNeighbors:
    def test_wall_removes_neighbor(self, m0):
        assert list(adjacency(m0)[8]) == [3, 7]
        assert list(adjacency(m0)[2]) == [1, 7]

    def test_corner_no_walls(self, m0_nowall):
        assert list(adjacency(m0_nowall)[0]) == [1, 5]

    def test_bounded_degree(self, m0, m0_nowall):
        for maze in (m0, m0_nowall):
            assert len(adjacency(maze)) == maze.size
            for nearby in adjacency(maze):
                assert len(nearby) <= 4


class TestRotate:
    def test_left_is_counterclockwise(self):
        assert rotate(Heading.N, "left") == Heading.W

    def test_right_from_west(self):
        assert rotate(Heading.W, "right") == Heading.N

    @given(headings)
    def test_left_right_inverse(self, h):
        assert rotate(rotate(h, "left"), "right") == h
        assert rotate(rotate(h, "right"), "left") == h

    @given(headings, st.sampled_from(["left", "right"]))
    def test_four_turns_identity(self, h, direction):
        out = h
        for _ in range(4):
            out = rotate(out, direction)
        assert out == h

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            rotate(Heading.N, "around")


class TestMazeInvariants:
    def test_wall_out_of_bounds(self):
        with pytest.raises(MazeError):
            Maze(2, 5, frozenset({(9, 10)}), Opening(8, Heading.S), Opening(1, Heading.N))

    def test_wall_not_adjacent(self):
        with pytest.raises(MazeError):
            Maze(2, 5, frozenset({(0, 9)}), Opening(8, Heading.S), Opening(1, Heading.N))

    def test_wall_diagonal(self):
        with pytest.raises(MazeError):
            Maze(2, 5, frozenset({(0, 6)}), Opening(8, Heading.S), Opening(1, Heading.N))

    def test_opening_faces_inward(self):
        # cell 8 is in the bottom row, so its N side is interior
        with pytest.raises(MazeError):
            Maze(2, 5, frozenset(), Opening(8, Heading.N), Opening(1, Heading.N))

    def test_entrance_equals_exit(self):
        with pytest.raises(MazeError):
            Maze(2, 5, frozenset(), Opening(8, Heading.S), Opening(8, Heading.S))

    def test_same_cell_different_sides_allowed(self):
        maze = Maze(1, 1, frozenset(), Opening(0, Heading.N), Opening(0, Heading.S))
        assert maze.entrance.cell == maze.exit.cell

    def test_zero_size_rejected(self):
        with pytest.raises(MazeError):
            Maze(0, 5, frozenset(), Opening(0, Heading.N), Opening(0, Heading.S))

    def test_wall_pairs_normalized(self):
        maze = Maze(2, 5, frozenset({(1, 0), (3, 2)}), Opening(8, Heading.S), Opening(1, Heading.N))
        assert maze.walls == frozenset({(0, 1), (2, 3)})

    def test_structural_equality(self, m0):
        twin = Maze(2, 5, frozenset({(8, 9), (6, 7), (2, 3), (1, 0)}),
                    Opening(8, Heading.S), Opening(1, Heading.N))
        assert twin == m0
        assert hash(twin) == hash(m0)


def test_internal_adjacency_count_2x5():
    assert len(internal_adjacencies(2, 5)) == 13


def test_internal_adjacency_order_2x5():
    # Row-major, right then down: the generator samples walls from this order.
    assert list(internal_adjacencies(2, 5)) == [
        (0, 1), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9),
        (5, 6), (6, 7), (7, 8), (8, 9),
    ]


def test_boundary_openings_2x5():
    openings = boundary_openings(2, 5)
    assert len(openings) == 14
    assert len(set(openings)) == 14


def test_boundary_openings_cached_per_shape():
    assert boundary_openings(3, 4) is boundary_openings(3, 4)
