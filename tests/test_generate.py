import importlib
import json
import random
import time
from pathlib import Path

import pytest

from mazenav import corpus
from mazenav.corpus import CorpusError, build_corpus, load_corpus, save_corpus
from mazenav.generate import GenConfig, GenerationError, _sample_openings, generate, generate_corpus
from mazenav.grid import Heading, Opening, boundary_openings
from mazenav.solver import bfs_distances, optimal_solutions, reference_solution

from .reference_impl import bf_distance


class TestGenConfig:
    def test_defaults_reproduce_benchmark_regime(self):
        cfg = GenConfig()
        assert (cfg.rows, cfg.cols, cfg.wall_count) == (2, 5, 4)
        assert (cfg.min_path, cfg.max_path) == (3, 6)
        assert cfg.require_unique_optimal

    def test_wall_count_bounds(self):
        with pytest.raises(ValueError):
            GenConfig(wall_count=14)  # 2x5 has 13 internal adjacencies
        with pytest.raises(ValueError):
            GenConfig(wall_count=-1)

    def test_cell_cap_checked_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cells"):
            GenConfig(rows=10000, cols=10000)
        assert time.perf_counter() - start < 0.1
        GenConfig(rows=500, cols=500, min_path=499, max_path=998)  # exactly MAX_CELLS

    def test_path_bounds(self):
        with pytest.raises(ValueError):
            GenConfig(min_path=0)
        with pytest.raises(ValueError):
            GenConfig(min_path=5, max_path=4)

    @pytest.mark.parametrize("rows, cols", [(10, 10), (30, 30), (8, 20), (20, 8)])
    def test_window_below_crossing_rejected(self, rows, cols):
        # Opposite long sides lie min(rows, cols) - 1 moves apart; the window is 3-6.
        with pytest.raises(ValueError, match=f"max_path must be >= {min(rows, cols) - 1}"):
            GenConfig(rows=rows, cols=cols)
        GenConfig(rows=rows, cols=cols, opposite_sides=False)

    def test_window_above_cell_count_rejected(self):
        with pytest.raises(ValueError, match="min_path must be <= 9"):
            GenConfig(min_path=20, max_path=30)
        with pytest.raises(ValueError, match="min_path must be <= 9"):
            GenConfig(min_path=10, max_path=10, opposite_sides=False)
        GenConfig(wall_count=0, min_path=9, max_path=9, opposite_sides=False)

    def test_window_at_crossing_accepted(self):
        cfg = GenConfig(rows=4, cols=6, wall_count=0, min_path=1, max_path=3, seed=3)
        maze = generate(cfg)
        assert bfs_distances(maze, maze.entrance.cell)[maze.exit.cell] == 3


class TestGenerate:
    def test_seeded_maze_is_solvable_and_unique(self):
        maze = generate(GenConfig(seed=42))
        assert len(list(optimal_solutions(maze))) == 1
        assert bf_distance(maze) is not None

    def test_no_walls_always_solvable(self):
        for seed in range(30):
            maze = generate(GenConfig(seed=seed, wall_count=0, min_path=1))
            assert bf_distance(maze) is not None

    def test_min_path_honored(self):
        for seed in range(20):
            maze = generate(GenConfig(seed=seed, min_path=4))
            dist = bfs_distances(maze, maze.entrance.cell)[maze.exit.cell]
            assert dist >= 4
            assert dist == bf_distance(maze)

    def test_path_window_honored(self):
        rng = random.Random(3)
        cfg = GenConfig(seed=3)
        for _ in range(100):
            maze = generate(cfg, rng)
            dist = bfs_distances(maze, maze.entrance.cell)[maze.exit.cell]
            assert cfg.min_path <= dist <= cfg.max_path

    def test_deterministic(self):
        assert generate(GenConfig(seed=77)) == generate(GenConfig(seed=77))

    def test_opposite_sides_default(self):
        rng = random.Random(17)
        cfg = GenConfig(seed=17)
        for _ in range(50):
            maze = generate(cfg, rng)
            sides = {maze.entrance.side, maze.exit.side}
            assert sides == {maze.entrance.side, maze.entrance.side.opposite()}

    def test_exhaustion_error(self):
        cfg = GenConfig(wall_count=13, min_path=1, max_path=9, seed=1, max_attempts=300)
        with pytest.raises(GenerationError):
            generate(cfg)  # every internal adjacency walled: never solvable

    def test_work_budget_ends_a_window_few_walls_cannot_meet(self, monkeypatch):
        # 4 walls cannot stretch a 30x30 crossing to 800 moves; unbudgeted,
        # this ran all 100,000 attempts (about 40 s).
        monkeypatch.setattr(importlib.import_module("mazenav.generate"), "WORK_BUDGET", 200_000)
        cfg = GenConfig(rows=30, cols=30, wall_count=4, min_path=800, max_path=900)
        errors = []
        for _ in range(2):
            start = time.perf_counter()
            with pytest.raises(GenerationError, match="work budget of 200,000 cell visits") as err:
                generate(cfg)
            assert time.perf_counter() - start < 1.0
            errors.append(str(err.value))
        # 900 cells per candidate: the 223rd passes 200,000, the same one each run.
        assert errors[0] == errors[1] and errors[0].endswith("after 223 attempts")

    def test_uniqueness_check_charges_the_paths_it_listed(self, monkeypatch):
        # On a wall-free 2x2 grid every maze in the window 2-2 has two tied
        # optima, so none is accepted. A candidate charges its BFS 4 cells, and
        # a uniqueness check 4 more plus the cells of the paths it listed.
        module = importlib.import_module("mazenav.generate")
        monkeypatch.setattr(module, "WORK_BUDGET", 200)
        costs = []
        bfs, listing = module.bfs_distances, module.optimal_solutions

        def charged_listing(maze):
            found = list(listing(maze))
            costs.append(4 + sum(len(s.cells) for s in found))
            return found

        monkeypatch.setattr(module, "bfs_distances", lambda *a: costs.append(4) or bfs(*a))
        monkeypatch.setattr(module, "optimal_solutions", charged_listing)
        cfg = GenConfig(rows=2, cols=2, wall_count=0, min_path=2, max_path=2, seed=5)
        with pytest.raises(GenerationError, match="work budget of 200 cell visits"):
            generate(cfg)
        assert 10 in costs  # a listing of two 3-cell paths
        assert sum(costs[:-1]) <= 200 < sum(costs)

    def test_uniqueness_check_draws_at_most_two_optima(self, monkeypatch):
        # Every candidate in the window offers endless optima; two are
        # enough to see a tie, so the check draws no more.
        module = importlib.import_module("mazenav.generate")
        monkeypatch.setattr(module, "WORK_BUDGET", 500)
        drawn = []

        def endless_optima(maze):
            drawn.append(0)
            solution = reference_solution(maze)
            while True:
                drawn[-1] += 1
                yield solution

        monkeypatch.setattr(module, "optimal_solutions", endless_optima)
        with pytest.raises(GenerationError, match="work budget"):
            generate(GenConfig(seed=3))
        assert drawn and set(drawn) == {2}


def _long_side_pair(rows, cols):
    return (Heading.N, Heading.S) if cols >= rows else (Heading.W, Heading.E)


def _opening_on(cfg, side, rng):
    if side in (Heading.N, Heading.S):
        col = rng.randrange(cfg.cols)
        row = 0 if side is Heading.N else cfg.rows - 1
    else:
        row = rng.randrange(cfg.rows)
        col = 0 if side is Heading.W else cfg.cols - 1
    return Opening(row * cfg.cols + col, side)


def _reference_openings(cfg, rng):
    """The opening draw that pinned corpora were made with: a side, then a
    column or row on it, or two distinct openings from the boundary list."""
    if cfg.opposite_sides:
        first, second = _long_side_pair(cfg.rows, cfg.cols)
        entrance_side = rng.choice((first, second))
        exit_side = second if entrance_side is first else first
        return _opening_on(cfg, entrance_side, rng), _opening_on(cfg, exit_side, rng)
    options = list(boundary_openings(cfg.rows, cfg.cols))
    entrance = rng.choice(options)
    exit_ = rng.choice([o for o in options if o != entrance])
    return entrance, exit_


@pytest.mark.parametrize("rows, cols", [(1, 6), (6, 1), (2, 5), (5, 5), (12, 3), (6, 10)])
@pytest.mark.parametrize("opposite_sides", [True, False])
def test_opening_draws_match_the_reference(rows, cols, opposite_sides):
    # Same openings and same rng state after each draw, so every corpus keeps its bytes.
    cfg = GenConfig(rows=rows, cols=cols, opposite_sides=opposite_sides)
    ours, reference = random.Random(rows * 100 + cols), random.Random(rows * 100 + cols)
    for _ in range(200):
        assert _sample_openings(cfg, ours) == _reference_openings(cfg, reference)
        assert ours.getstate() == reference.getstate()


class TestGenerateCorpus:
    def test_counts_and_distinctness(self):
        tests, shots = generate_corpus(GenConfig(seed=42), 34, 6)
        assert len(tests) == 34 and len(shots) == 6
        all_mazes = tests + shots
        assert len(set(all_mazes)) == 40

    def test_empty(self):
        assert generate_corpus(GenConfig(seed=1), 0, 0) == ([], [])

    def test_deterministic(self):
        a = generate_corpus(GenConfig(seed=5), 2, 1)
        b = generate_corpus(GenConfig(seed=5), 2, 1)
        assert a == b

    def test_disjoint_sets(self):
        tests, shots = generate_corpus(GenConfig(seed=9), 10, 4)
        assert not set(tests) & set(shots)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            generate_corpus(GenConfig(seed=1), -1, 0)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        cfg = GenConfig(seed=8)
        tests, shots = generate_corpus(cfg, 3, 2)
        save_corpus(tmp_path / "c", tests, shots, cfg)
        corpus = load_corpus(tmp_path / "c")
        assert [m for _, m in corpus.tests] == tests
        assert [m for _, m in corpus.shots] == shots
        assert corpus.config["seed"] == 8

    def test_build_corpus(self, tmp_path):
        corpus = build_corpus(tmp_path / "c", GenConfig(seed=4), 2, 1)
        assert len(corpus.tests) == 2 and len(corpus.shots) == 1
        assert (tmp_path / "c" / "manifest.json").exists()
        assert (tmp_path / "c" / "test-000.maze").exists()

    @pytest.mark.parametrize("cfg", [
        GenConfig(),
        GenConfig(opposite_sides=False),
        GenConfig(rows=12, cols=3),
        GenConfig(rows=6, cols=10, min_path=10, max_path=14),
    ], ids=["default", "any-sides", "12x3", "6x10"])
    def test_build_corpus_loads_back(self, tmp_path, cfg):
        assert build_corpus(tmp_path / "c", cfg, 8, 6) == load_corpus(tmp_path / "c")

    def test_build_corpus_reads_nothing_back(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("build_corpus read back what it wrote")

        monkeypatch.setattr(corpus, "load_corpus", fail)
        monkeypatch.setattr(corpus, "parse", fail)
        built = build_corpus(tmp_path / "c", GenConfig(seed=4), 2, 1)
        assert [maze_id for maze_id, _ in built.tests + built.shots] == [
            "test-000", "test-001", "shot-000"]

    def test_checksum_tamper_detected(self, tmp_path):
        build_corpus(tmp_path / "c", GenConfig(seed=4), 1, 0)
        target = tmp_path / "c" / "test-000.maze"
        target.write_text(target.read_text() + " ", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("change", [
        lambda m: m.pop("mazes"),
        lambda m: m.update(mazes={}),
        lambda m: m.update(config=[]),
        lambda m: m["mazes"][0].pop("sha256"),
        lambda m: m["mazes"][0].pop("id"),
        lambda m: m["mazes"][1].update(role="dev"),
        lambda m: m["mazes"].append(7),
        lambda m: m["mazes"][1].update(id=m["mazes"][0]["id"]),
        lambda m: m["mazes"][0].update(id=7),
        lambda m: m["mazes"][0].update(file=7),
        lambda m: m["mazes"][1].update(file=m["mazes"][0]["file"], sha256=m["mazes"][0]["sha256"]),
        lambda m: m["mazes"][0].update(file="../outside.maze"),
        lambda m: m["mazes"][0].update(file=str(Path("outside.maze").resolve())),
    ], ids=["no-mazes", "mazes-object", "config-list", "no-sha256", "no-id", "unknown-role",
            "entry-number", "repeated-id", "integer-id", "integer-file", "repeated-file",
            "file-outside-relative", "file-outside-absolute"])
    def test_malformed_manifest_refused(self, tmp_path, monkeypatch, change):
        build_corpus(tmp_path / "c", GenConfig(seed=4), 1, 1)
        # The entries that leave the corpus directory name a copy of test-000.maze.
        (tmp_path / "outside.maze").write_bytes((tmp_path / "c" / "test-000.maze").read_bytes())
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        change(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CorpusError, match="manifest.json"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("content", [b"not json", b'{"format": "\xff"}'],
                             ids=["not-json", "not-utf8"])
    def test_unreadable_manifest_names_its_file(self, tmp_path, content):
        build_corpus(tmp_path / "c", GenConfig(seed=4), 1, 1)
        (tmp_path / "c" / "manifest.json").write_bytes(content)
        with pytest.raises(CorpusError, match="manifest.json"):
            load_corpus(tmp_path / "c")

    def test_maze_file_not_utf8_names_its_file(self, tmp_path):
        build_corpus(tmp_path / "c", GenConfig(seed=4), 1, 1)
        (tmp_path / "c" / "shot-000.maze").write_bytes(b"\xff\xfe maze")
        with pytest.raises(CorpusError, match="shot-000.maze is not UTF-8"):
            load_corpus(tmp_path / "c")

    def test_malformed_maze_file_names_its_file(self, tmp_path):
        build_corpus(tmp_path / "c", GenConfig(seed=4), 1, 1)
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        (tmp_path / "c" / "shot-000.maze").write_text("not a maze\n", encoding="utf-8")
        manifest["mazes"][1]["sha256"] = corpus._sha256("not a maze\n")
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CorpusError, match="shot-000.maze: line 1: expected description"):
            load_corpus(tmp_path / "c")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path)
