"""Seeded procedural maze generation with controlled difficulty.

Mazes in this benchmark are sparse-wall rooms, not spanning-tree mazes, so
generation is rejection sampling: draw a uniform wall subset of fixed size
plus boundary openings, keep the result when it is solvable, its shortest
path length falls in the configured window, and (by default) its minimal
instruction solution is unique so that step-level scoring is unambiguous.
The walls come from grid.internal_adjacencies and both openings from
grid.boundary_openings, the shape's one cached list of legal openings, so
every draw is a valid Maze.

Each generate call has a deterministic work budget, WORK_BUDGET, counted in
cell visits: every candidate charges its grid's cell count for its BFS, and
every uniqueness check the exit BFS of the solver (the cell count again)
plus the cells of the at most two optimal paths it draws. A window that
passes GenConfig's arithmetic but that so few walls cannot meet then fails
with GenerationError after about a minute, whatever the grid size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .grid import Heading, Maze, Opening, boundary_openings, internal_adjacencies
from .solver import bfs_distances, optimal_solutions


# The largest grid GenConfig accepts, in cells, checked before anything is
# allocated. The reference solution of an open 500x500 grid takes about
# 2.4 s and 190 MiB peak (CPython 3.11, shared 2-CPU x86 host).
MAX_CELLS = 250_000

# About one minute of rejected candidates at 1.3-2.3 M cell visits per second
# (30x30 to 500x500 grids, CPython 3.11, shared 2-CPU x86 host).
WORK_BUDGET = 100_000_000


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its attempt or work budget."""


@dataclass(frozen=True)
class GenConfig:
    rows: int = 2
    cols: int = 5
    wall_count: int = 4
    min_path: int = 3  # bounds on BFS distance entrance -> exit, in moves
    max_path: int = 6
    require_unique_optimal: bool = True
    opposite_sides: bool = True  # entrance/exit on opposite long sides
    seed: int = 0
    max_attempts: int = 100_000

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1x1")
        cells = self.rows * self.cols
        if cells > MAX_CELLS:
            raise ValueError(f"a {self.rows}x{self.cols} grid has {cells} cells; "
                             f"generated mazes have at most {MAX_CELLS}")
        limit = self.rows * (self.cols - 1) + self.cols * (self.rows - 1)  # wall slots
        if not 0 <= self.wall_count <= limit:
            raise ValueError(f"wall_count must be in [0, {limit}], got {self.wall_count}")
        if not 1 <= self.min_path <= self.max_path:
            raise ValueError("need 1 <= min_path <= max_path")
        # Windows no maze can meet would spend max_attempts full-grid BFS runs.
        crossing = min(self.rows, self.cols) - 1
        if self.opposite_sides and self.max_path < crossing:
            raise ValueError(f"max_path must be >= {crossing}: entrance and exit on opposite long "
                             f"sides of a {self.rows}x{self.cols} grid are that many moves apart")
        if self.min_path > cells - 1:
            raise ValueError(f"min_path must be <= {cells - 1}: a shortest path "
                             f"visits each of the {cells} cells at most once")


def _sample_openings(cfg: GenConfig, rng: random.Random) -> tuple[Opening, Opening]:
    """Two distinct openings from the shape's boundary_openings; with
    opposite_sides, one on a long side and one on the side across from it."""
    options = boundary_openings(cfg.rows, cfg.cols)
    if cfg.opposite_sides:
        side = rng.choice((Heading.N, Heading.S) if cfg.cols >= cfg.rows else (Heading.W, Heading.E))
        across = side.opposite()
        entrance = rng.choice([o for o in options if o.side is side])
        exit_ = rng.choice([o for o in options if o.side is across])
    else:
        entrance = rng.choice(options)
        exit_ = rng.choice([o for o in options if o != entrance])
    return entrance, exit_


def _candidate(cfg: GenConfig, rng: random.Random, adjacencies: tuple) -> tuple[Maze | None, int]:
    """The drawn maze, or None when it fails a constraint, and its work in
    cell visits."""
    walls = rng.sample(adjacencies, cfg.wall_count)
    entrance, exit_ = _sample_openings(cfg, rng)
    cells = cfg.rows * cfg.cols
    maze = Maze(cfg.rows, cfg.cols, frozenset(walls), entrance, exit_)
    dist = bfs_distances(maze, entrance.cell).get(exit_.cell)
    if dist is None or not cfg.min_path <= dist <= cfg.max_path:
        return None, cells
    if cfg.require_unique_optimal:
        solutions = list(islice(optimal_solutions(maze), 2))  # a tie needs only two
        if len(solutions) != 1:
            return None, 2 * cells + sum(len(s.cells) for s in solutions)
    return maze, cells


def generate(cfg: GenConfig, rng: random.Random | None = None) -> Maze:
    """Deterministic function of cfg.seed (or of the supplied rng stream)."""
    rng = rng if rng is not None else random.Random(cfg.seed)
    adjacencies = internal_adjacencies(cfg.rows, cfg.cols)
    work = 0
    for attempt in range(1, cfg.max_attempts + 1):
        maze, cost = _candidate(cfg, rng, adjacencies)
        if maze is not None:
            return maze
        work += cost
        if work > WORK_BUDGET:
            raise GenerationError(
                f"no maze satisfying the constraints within the work budget of "
                f"{WORK_BUDGET:,} cell visits (generate.WORK_BUDGET), after {attempt} attempts"
            )
    raise GenerationError(
        f"no maze satisfying the constraints after {cfg.max_attempts} attempts"
    )


def generate_corpus(cfg: GenConfig, n_test: int, n_shot: int) -> tuple[list[Maze], list[Maze]]:
    """n_test + n_shot structurally distinct mazes from one seeded stream."""
    if n_test < 0 or n_shot < 0:
        raise ValueError("corpus sizes must be non-negative")
    rng = random.Random(cfg.seed)
    mazes: list[Maze] = []
    seen: set[Maze] = set()
    duplicates = 0
    while len(mazes) < n_test + n_shot:
        maze = generate(cfg, rng)
        if maze in seen:
            duplicates += 1
            if duplicates > cfg.max_attempts:
                raise GenerationError("duplicate rejection budget exhausted")
            continue
        seen.add(maze)
        mazes.append(maze)
    return mazes[:n_test], mazes[n_test:]
