import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from mazenav import textform
from mazenav.generate import GenConfig, generate
from mazenav.grid import Heading, Maze, MazeError, Opening
from mazenav.textform import (
    MalformedDescription,
    canonical_lines,
    load_description,
    parse,
    render_ascii,
    serialize,
)

from .conftest import FIXTURES


class TestSerialize:
    def test_contains_wall_list_and_entrance(self, m0):
        text = serialize(m0).text
        for fragment in ("* 0 and 1", "* 2 and 3", "* 6 and 7", "* 8 and 9",
                         "ENTRANCE at 8", "EXIT at 1"):
            assert fragment in text

    def test_marker_columns(self, m0):
        lines = serialize(m0).text.splitlines()
        topo = [l.split() for l in lines[5:9]]
        assert topo[0][1] == "x"  # over cell 1
        assert topo[3][3] == "^"  # under cell 8
        assert topo[1] == ["0", "1", "2", "3", "4"]
        assert topo[2] == ["5", "6", "7", "8", "9"]

    def test_matches_golden_canon(self, m0, golden_description):
        assert canonical_lines(serialize(m0).text) == canonical_lines(golden_description)

    def test_byte_stable(self, m0):
        assert serialize(m0).text == serialize(m0).text

    def test_no_walls_sentence(self, m0_nowall):
        text = serialize(m0_nowall).text
        assert "There are no internal walls" in text
        assert "Furthermore" not in text

    def test_west_east_markers(self):
        maze = Maze(2, 5, frozenset(), Opening(5, Heading.W), Opening(9, Heading.E))
        lines = serialize(maze).text.splitlines()
        grid_rows = [l.split() for l in lines[5:9]]
        assert grid_rows[2][0] == "^"
        assert grid_rows[2][-1] == "x"

    def test_ordinals_past_twenty_rows(self):
        maze = Maze(23, 1, frozenset(), Opening(0, Heading.N), Opening(22, Heading.S))
        text = serialize(maze).text
        for phrase in ("(11th row)", "(12th row)", "(13th row)",
                       "(21st row)", "(22nd row)", "(23rd row)"):
            assert phrase in text
        assert parse(text) == maze


class TestParse:
    def test_golden_text(self, m0, golden_description):
        assert parse(golden_description) == m0

    def test_round_trip_worked(self, m0):
        assert parse(serialize(m0).text) == m0

    def test_load_description_names_its_file(self, tmp_path):
        path = tmp_path / "bad.maze"
        path.write_text("not a maze\n", encoding="utf-8")
        with pytest.raises(MalformedDescription, match=f"^{re.escape(str(path))}: line 1: "):
            load_description(path)

    def test_empty(self):
        with pytest.raises(MalformedDescription):
            parse("")

    def test_reworded_prose_rejected(self, m0):
        text = serialize(m0).text.replace("chess-board-like", "checkerboard")
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert info.value.line_no == 2

    def test_reworded_numbering_rejected(self, m0):
        text = serialize(m0).text.replace("(First row)", "(top row)")
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert info.value.line_no == 4

    def test_bad_wall_pair_names_line(self, m0):
        text = serialize(m0).text.replace("* 6 and 7", "* 6 and 9")
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert "not adjacent" in info.value.reason

    def test_marker_statement_mismatch(self, m0):
        text = serialize(m0).text.replace("ENTRANCE at 8", "ENTRANCE at 7")
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert "does not match" in info.value.reason

    def test_missing_marker(self, m0):
        text = serialize(m0).text.replace("^ ", "--")
        with pytest.raises(MalformedDescription):
            parse(text)

    def test_whitespace_variation_tolerated(self, m0):
        text = serialize(m0).text
        noisy = "\n\n".join("   " + line + "  " for line in text.splitlines())
        assert parse(noisy) == m0

    def test_trailing_garbage_rejected(self, m0):
        with pytest.raises(MalformedDescription):
            parse(serialize(m0).text + "\nP.S. good luck\n")

    def test_zero_size_rejected(self, m0):
        text = serialize(m0).text.replace("Size is 2 rows by 5 columns", "Size is 0 rows by 0 columns")
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert info.value.line_no == 3

    def test_size_beyond_text_rejected_before_serializing(self, m0, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("serialize called")

        text = serialize(m0).text.replace("Size is 2 rows by 5 columns",
                                          "Size is 1 row by 1000000000 columns")
        monkeypatch.setattr(textform, "serialize", fail)
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert info.value.line_no == 3

    # int() refuses more than 4,300 digits; such a number must still be
    # reported on its line, not as a bare ValueError.
    @pytest.mark.parametrize("old, new, line_no", [
        ("Size is 2 rows", "Size is {} rows", 3),
        ("* ENTRANCE at 8", "* ENTRANCE at {}", 13),
        ("* EXIT at 1", "* EXIT at {}", 14),
        ("* 6 and 7", "* 6 and {}", 21),
    ], ids=["size", "entrance", "exit", "wall"])
    def test_very_long_number_names_its_line(self, m0, old, new, line_no):
        text = serialize(m0).text.replace(old, new.format("9" * 5000))
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("edit, line_no", [
        (lambda lines: lines[:3] + lines[4:], 4),
        (lambda lines: lines[:4] + lines[5:], 5),
        (lambda lines: ["5 6 4 8 9" if l.split() == list("56789") else l for l in lines], 8),
        (lambda lines: [l for l in lines if l.strip() != "* EXIT at 1"], 15),
        (lambda lines: lines + ["P.S. good luck"], 23),
        (lambda lines: [l.replace("* 6 and 7", "* 4 and 5") for l in lines], 21),
        (lambda lines: [l.replace("* 6 and 7", "* 6 and 10") for l in lines], 21),
    ], ids=["delete-line-4", "delete-line-5", "bad-zone-row", "delete-exit", "trailing-text",
            "wall-wraps-row", "wall-out-of-range"])
    def test_pinned_line_numbers(self, m0, edit, line_no):
        text = "\n".join(edit(serialize(m0).text.splitlines())) + "\n"
        with pytest.raises(MalformedDescription) as info:
            parse(text)
        assert info.value.line_no == line_no

    def test_round_trip_seeded_corpus(self):
        rng = random.Random(7)
        cfg = GenConfig(seed=7, require_unique_optimal=False)
        for _ in range(150):
            maze = generate(cfg, rng)
            assert parse(serialize(maze).text) == maze

    def test_round_trip_any_sides(self):
        rng = random.Random(13)
        cfg = GenConfig(seed=13, opposite_sides=False, require_unique_optimal=False)
        for _ in range(100):
            maze = generate(cfg, rng)
            assert parse(serialize(maze).text) == maze

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6))
    def test_round_trip_odd_shapes(self, rows, cols):
        if rows * cols < 2 and rows == cols == 1:
            maze = Maze(1, 1, frozenset(), Opening(0, Heading.N), Opening(0, Heading.S))
        else:
            maze = Maze(rows, cols, frozenset(),
                        Opening(0, Heading.N), Opening(rows * cols - 1, Heading.S))
        assert parse(serialize(maze).text) == maze


MUTATIONS = ("delete", "duplicate", "swap", "digits", "marker tokens", "marker chars", "token")
TOKEN_POOL = ("^", "x", "--", "0", "1", "9", "12", "and", "*", "-", "zones", "rows", "foo")


def mutate(text: str, kind: str, rng: random.Random) -> str:
    """One seeded edit of a description: the kinds of damage a hand edit or a
    garbled copy does to the text."""
    lines = text.splitlines()
    if kind == "delete":
        del lines[rng.randrange(len(lines))]
    elif kind == "duplicate":
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    elif kind == "swap":
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "digits":
        i = rng.choice([k for k, line in enumerate(lines) if re.search(r"\d", line)])
        run = rng.choice(list(re.finditer(r"\d+", lines[i])))
        lines[i] = lines[i][:run.start()] + str(rng.randrange(25)) + lines[i][run.end():]
    elif kind == "marker tokens":
        swap = {"^": "x", "x": "^"}
        lines = [" ".join(swap.get(tok, tok) for tok in line.split(" ")) for line in lines]
    elif kind == "marker chars":
        lines = [line.translate({ord("^"): "x", ord("x"): "^"}) for line in lines]
    elif kind == "token":
        i = rng.choice([k for k, line in enumerate(lines) if line.split()])
        tokens = lines[i].split()
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKEN_POOL + tuple(text.split()))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestParseMutations:
    CONFIGS = (
        GenConfig(seed=5, require_unique_optimal=False),
        GenConfig(seed=6, opposite_sides=False, require_unique_optimal=False),
        GenConfig(rows=3, cols=4, wall_count=3, seed=7, require_unique_optimal=False),
    )

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "any-sides", "3x4"])
    def test_accepts_only_canonical_text_and_names_a_real_line(self, cfg):
        rng = random.Random(cfg.seed)
        for _ in range(10):
            text = serialize(generate(cfg, rng)).text
            for kind in MUTATIONS:
                for _ in range(4):
                    mutant = mutate(text, kind, rng)
                    try:
                        maze = parse(mutant)
                    except MalformedDescription as err:
                        assert 1 <= err.line_no <= len(mutant.splitlines()), (kind, mutant)
                    else:
                        assert canonical_lines(serialize(maze).text) == canonical_lines(mutant)


class TestRenderAscii:
    def test_golden(self, m0):
        golden = (FIXTURES / "golden_render.txt").read_text(encoding="utf-8")
        assert render_ascii(m0) == golden

    def test_south_gap_at_entrance(self, m0):
        bottom = render_ascii(m0).splitlines()[-1]
        assert "^" in bottom

    def test_overlay_marks_exactly_path_cells(self, m0):
        art = render_ascii(m0, [8, 7, 2, 1])
        assert art.count("*") == 4

    def test_degenerate_one_by_one(self):
        maze = Maze(1, 1, frozenset(), Opening(0, Heading.N), Opening(0, Heading.S))
        art = render_ascii(maze)
        assert "0" in art and "^" in art and "x" in art

    def test_out_of_bounds_overlay(self, m0):
        with pytest.raises(MazeError):
            render_ascii(m0, [99])
