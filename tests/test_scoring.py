import pytest
from hypothesis import given, strategies as st

from mazenav.instructions import Turn, parse_response, render_sequence
from mazenav.scoring import (
    MODE_EXECUTION,
    MODE_ORACLE,
    RunScore,
    score_run,
    summarize,
)
from mazenav.simulator import FaultKind
from mazenav.solver import reference_solution

from .reference_impl import emit_instructions


def respond(instrs) -> "parse_response":
    return parse_response(render_sequence(list(instrs)))


class TestScoreRunOracleMatch:
    def test_exact_solution(self, m0, m0_solution):
        score = score_run(m0, respond(m0_solution))
        assert score.complete and score.partial == 1.0 and score.first_fault is None

    def test_prefix_then_wrong_turn(self, m0, m0_solution):
        # reference step 6 is Turn(left); Turn(right) deviates there
        parsed = respond(list(m0_solution[:5]) + [Turn("right")])
        score = score_run(m0, parsed)
        assert not score.complete
        assert score.partial == pytest.approx(5 / 9)

    def test_empty(self, m0):
        score = score_run(m0, parse_response(""))
        assert not score.complete and score.partial == 0.0

    def test_truncated_prefix_no_error(self, m0, m0_solution):
        score = score_run(m0, respond(m0_solution[:4]))
        assert not score.complete
        assert score.partial == pytest.approx(4 / 9)
        assert score.first_fault is None  # stopped early, nothing wrong yet

    def test_extra_instruction_after_full_match(self, m0, m0_solution):
        score = score_run(m0, respond(list(m0_solution) + [Turn("left")]))
        assert not score.complete
        assert score.partial == 1.0

    def test_interior_unparseable_line(self, m0, m0_solution):
        lines = render_sequence(list(m0_solution)).splitlines()
        text = "\n".join(lines[:5] + ["gibberish here"] + lines[5:])
        score = score_run(m0, parse_response(text))
        assert not score.complete
        assert score.partial == pytest.approx(5 / 9)
        assert score.first_fault == (5, FaultKind.UNPARSEABLE_STEP.value)

    def test_mismatch_before_unparseable(self, m0, m0_solution):
        lines = render_sequence(list(m0_solution)).splitlines()
        lines[2] = "Walk forward to position 3"  # deviates at index 2
        text = "\n".join(lines[:5] + ["???"] + lines[5:])
        score = score_run(m0, parse_response(text))
        assert score.partial == pytest.approx(2 / 9)
        assert score.first_fault is None


class TestScoreRunExecution:
    def test_exact_solution(self, m0, m0_solution):
        score = score_run(m0, respond(m0_solution), MODE_EXECUTION)
        assert score.complete and score.partial == 1.0

    def test_wandering_complete_path(self, m0_nowall):
        detour = emit_instructions(m0_nowall, [8, 7, 6, 5, 0, 1])
        parsed = respond(detour)
        assert score_run(m0_nowall, parsed, MODE_EXECUTION).complete
        assert not score_run(m0_nowall, parsed, MODE_ORACLE).complete

    def test_fault_recorded(self, m0, m0_solution):
        parsed = respond(list(m0_solution[:2]) + [Turn("left")] + list(m0_solution[3:]))
        score = score_run(m0, parsed, MODE_EXECUTION)
        assert not score.complete
        assert score.first_fault is not None
        index, kind = score.first_fault
        assert kind == FaultKind.NOT_ON_RAY.value

    def test_interior_unparseable_line(self, m0, m0_solution):
        lines = render_sequence(list(m0_solution)).splitlines()
        text = "\n".join(lines[:5] + ["gibberish"] + lines[5:])
        score = score_run(m0, parse_response(text), MODE_EXECUTION)
        assert not score.complete
        assert score.first_fault == (5, FaultKind.UNPARSEABLE_STEP.value)

    def test_partial_capped_at_one(self, m0_nowall):
        long_route = emit_instructions(m0_nowall, [8, 7, 6, 5, 0, 1])
        # strip the final exit so the run never completes
        parsed = respond(long_route[:-1])
        score = score_run(m0_nowall, parsed, MODE_EXECUTION)
        assert not score.complete
        assert score.partial == 1.0

    def test_stopped_early_has_no_fault(self, m0, m0_solution):
        score = score_run(m0, respond(m0_solution[:3]), MODE_EXECUTION)
        assert score.first_fault is None
        assert score.partial == pytest.approx(3 / 9)


def test_unknown_mode_rejected(m0):
    with pytest.raises(ValueError):
        score_run(m0, parse_response(""), "vibes")


def test_reference_override_matches_default(m0, m0_solution):
    ref = reference_solution(m0)
    a = score_run(m0, respond(m0_solution), reference=ref)
    b = score_run(m0, respond(m0_solution))
    assert a == b


def _score(complete: bool, partial: float) -> RunScore:
    return RunScore(complete, partial, None, MODE_ORACLE)


class TestAggregate:
    def test_eighteen_of_thirtyfour(self):
        scores = [_score(True, 1.0)] * 18 + [_score(False, 0.0)] * 16
        summary = summarize("model-a", "few-shot", scores)
        assert summary.n == 34
        assert summary.complete_pct == pytest.approx(52.9, abs=0.05)
        assert summary.partial_pct == pytest.approx(52.9, abs=0.05)
        assert f"{summary.complete_pct:.1f}" == "52.9"

    def test_all_complete(self):
        summary = summarize("m", "zero-shot", [_score(True, 1.0)] * 7)
        assert summary.complete_pct == 100.0 and summary.partial_pct == 100.0

    def test_mixed_partials(self):
        scores = [_score(True, 1.0), _score(False, 0.5), _score(False, 0.0)]
        summary = summarize("m", "one-shot", scores)
        assert summary.complete_pct == pytest.approx(33.3, abs=0.05)
        assert summary.partial_pct == pytest.approx(50.0)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            summarize("m", "few-shot", [])

    @given(
        st.lists(
            st.one_of(
                st.just((True, 1.0)),
                st.tuples(st.just(False), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_partial_dominates_complete(self, raw):
        scores = [_score(c, p) for c, p in raw]
        summary = summarize("m", "few-shot", scores)
        assert 0.0 <= summary.complete_pct <= summary.partial_pct <= 100.0
