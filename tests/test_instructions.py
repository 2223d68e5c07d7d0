import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from mazenav.instructions import (
    REASON_AMBIGUOUS_DIRECTION,
    REASON_EXTRA_CONTENT,
    REASON_NO_POSITION,
    REASON_NO_VERB,
    ExitAt,
    Forward,
    StepIn,
    Turn,
    UnparseableLine,
    _ENUM_MARKER,
    canonical_render,
    instruction_to_dict,
    normalize_line,
    parse_line,
    parse_response,
    render_sequence,
)

instruction_values = st.one_of(
    st.builds(StepIn, st.integers(0, 500)),
    st.builds(Turn, st.sampled_from(["left", "right"])),
    st.builds(Forward, st.integers(0, 500)),
    st.builds(ExitAt, st.integers(0, 500)),
)


@pytest.mark.parametrize(
    ("line", "expected"),
    [
        ("2. Turn to my left", Turn("left")),
        ("Walk forward to position 7", Forward(7)),
        ("Exit the maze from position 1.", ExitAt(1)),
        ("Start facing into the maze entrance and step into position 8", StepIn(8)),
        ('Start facing into the maze at the "^" symbol and step into position 8.', StepIn(8)),
        ("step into position 12", StepIn(12)),
        ("TURN RIGHT", Turn("right")),
        ("turn to your right", Turn("right")),
        ("Move forward to position 3", Forward(3)),
        ("go to position 4", Forward(4)),
        ("Leave the maze at position 0", ExitAt(0)),
        ("Exit the maze through position 9", ExitAt(9)),
        ("- Walk forward to position 2", Forward(2)),
        ("Step 4: Turn right", Turn("right")),
        ("3) Walk forward to position 5", Forward(5)),
    ],
)
def test_parse_line(line, expected):
    assert parse_line(line) == expected


@pytest.mark.parametrize(
    ("line", "reason"),
    [
        ("hello world", REASON_NO_VERB),
        ("", REASON_NO_VERB),
        ("Walk forward", REASON_NO_POSITION),
        ("Turn around", REASON_AMBIGUOUS_DIRECTION),
        ("Turn", REASON_AMBIGUOUS_DIRECTION),
        ("Turn left or right", REASON_AMBIGUOUS_DIRECTION),
        # More digits than int() converts (4,300 by default).
        pytest.param("Walk forward to position " + "7" * 5000, REASON_EXTRA_CONTENT,
                     id="over-long-position"),
    ],
)
def test_parse_line_failures(line, reason):
    with pytest.raises(UnparseableLine) as info:
        parse_line(line)
    assert info.value.reason == reason


_OLD_TRAILING_PUNCT = re.compile(r"[\s.!,;:]+$")


def old_normalize_line(line: str) -> str:
    """Reference: normalize_line with trailing punctuation stripped by a regex."""
    s = " ".join(line.split())
    s = _ENUM_MARKER.sub("", s)
    s = _OLD_TRAILING_PUNCT.sub("", s)
    return s.strip()


@given(st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u2003.!,;:-*)stepSTEPab0189")))
def test_normalize_line_matches_the_trailing_regex(line):
    assert normalize_line(line) == old_normalize_line(line)


def test_long_punctuation_run_parses_in_linear_time():
    # The regex backtracked quadratically here: 7.6 s for this 32,001-character line.
    line = ". " * 16000 + "x"
    started = time.perf_counter()
    parsed = parse_response(line)
    assert time.perf_counter() - started < 1.0
    assert parsed.rejected_lines[0].reason == REASON_NO_VERB


def test_compound_line_rejected():
    with pytest.raises(UnparseableLine):
        parse_line("Turn left and walk forward to position 7")


@given(instruction_values)
def test_canonical_render_round_trip(instr):
    assert parse_line(canonical_render(instr)) == instr


@given(instruction_values)
def test_dict_round_trip(instr):
    # The shape a record stores: the kind, and the turn's direction or the cell.
    kind = {StepIn: "step_in", Turn: "turn", Forward: "forward", ExitAt: "exit_at"}[type(instr)]
    value = {"direction": instr.direction} if kind == "turn" else {"cell": instr.cell}
    assert instruction_to_dict(instr) == {"kind": kind, **value}


def test_negative_cell_rejected():
    with pytest.raises(ValueError):
        StepIn(-1)


def test_bad_turn_direction_rejected():
    with pytest.raises(ValueError):
        Turn("up")


class TestParseResponse:
    def test_full_solution(self, golden_solution, m0_solution):
        parsed = parse_response(golden_solution)
        assert parsed.instructions == m0_solution
        assert parsed.rejected_lines == ()

    def test_empty(self):
        parsed = parse_response("")
        assert parsed.instructions == ()
        assert parsed.rejected_lines == ()

    def test_preamble_recorded_not_parsed(self, golden_solution, m0_solution):
        parsed = parse_response("Here is the solution:\n" + golden_solution)
        assert parsed.instructions == m0_solution
        assert len(parsed.rejected_lines) == 1
        assert parsed.rejected_lines[0].line_no == 1

    def test_every_nonblank_line_accounted_for(self, golden_solution):
        text = "intro\n\n" + golden_solution + "\nnoise\n\nmore noise"
        parsed = parse_response(text)
        nonblank = sum(1 for line in text.splitlines() if line.strip())
        assert len(parsed.instructions) + len(parsed.rejected_lines) == nonblank

    def test_order_preserved(self):
        parsed = parse_response("Turn left\nTurn right\nTurn left")
        assert parsed.instructions == (Turn("left"), Turn("right"), Turn("left"))


class TestScoredPrefix:
    def test_no_rejections(self, golden_solution, m0_solution):
        usable, truncated = parse_response(golden_solution).scored_prefix()
        assert tuple(usable) == m0_solution
        assert truncated is False

    def test_interior_rejection_truncates(self):
        text = "Turn left\nTurn right\n???\nTurn left"
        usable, truncated = parse_response(text).scored_prefix()
        assert usable == [Turn("left"), Turn("right")]
        assert truncated is True

    def test_preamble_and_epilogue_ignored(self, golden_solution, m0_solution):
        text = "preface\n" + golden_solution + "\nafterword"
        usable, truncated = parse_response(text).scored_prefix()
        assert tuple(usable) == m0_solution
        assert truncated is False

    def test_empty_response(self):
        usable, truncated = parse_response("").scored_prefix()
        assert usable == []
        assert truncated is False

    @staticmethod
    def line_number_rule(text: str) -> tuple[list, bool]:
        """The rule scored_prefix once applied to stored line numbers: cut at
        the first rejected line strictly between the first and the last
        instruction line."""
        instrs, instr_lines, rejected_lines = [], [], []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip():
                continue
            try:
                instrs.append(parse_line(raw))
                instr_lines.append(line_no)
            except UnparseableLine:
                rejected_lines.append(line_no)
        if not instrs:
            return [], False
        interior = [n for n in rejected_lines if instr_lines[0] < n < instr_lines[-1]]
        if not interior:
            return instrs, False
        return [i for i, n in zip(instrs, instr_lines) if n < min(interior)], True

    def test_matches_the_line_number_rule(self):
        rng = random.Random(23)
        steps = ["Turn left", "Turn right", "Walk forward to position 3",
                 "1. Start facing into the maze entrance and step into position 0",
                 "Exit the maze from position 4"]
        junk = ["???", "Then I think:", "Turn around", "Walk forward", "- note"]
        cut = 0
        for _ in range(3000):
            body = [rng.choice(rng.choice((steps, steps, junk, ["", "   "])))
                    for _ in range(rng.randrange(12))]
            text = "\n".join(["Here is my route:"] * rng.randrange(2) + body
                             + ["Hope that helps."] * rng.randrange(2))
            expected = self.line_number_rule(text)
            assert parse_response(text).scored_prefix() == expected, text
            cut += expected[1]
        assert cut > 500  # the draw exercises truncation, not only clean replies


def test_render_sequence_is_lines(m0_solution):
    text = render_sequence(m0_solution)
    assert len(text.splitlines()) == len(m0_solution)


def test_leniency_corpus(leniency_variants, m0_solution):
    assert len(leniency_variants) >= 20
    for name, text in leniency_variants.items():
        parsed = parse_response(text)
        assert parsed.instructions == m0_solution, f"variant {name!r} diverged"
