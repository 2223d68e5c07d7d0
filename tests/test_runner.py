import dataclasses
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from mazenav import gateway, runner
from mazenav.corpus import build_corpus
from mazenav.gateway import (
    DEFAULT_SCENARIOS,
    ONE_SHOT,
    AuthError,
    ProviderConfig,
    RequestRejected,
    Scenario,
    build_messages,
)
from mazenav.generate import GenConfig
from mazenav.instructions import Turn, render_sequence
from mazenav.report import render_reports
from mazenav.runner import (
    RECORDS_NAME,
    ExperimentSpec,
    RunRecord,
    SpecError,
    _load_records,
    load_records,
    load_spec,
    report_text,
    run,
    run_records,
    shots_for,
    summaries_from,
    summary_csv,
)
from mazenav.scoring import MODE_EXECUTION, MODE_ORACLE, RunScore
from mazenav.simulator import FaultKind
from mazenav.solver import reference_solution, solution_text


@pytest.fixture
def small_corpus(tmp_path):
    directory = tmp_path / "corpus"
    corpus = build_corpus(directory, GenConfig(seed=31), 4, 6)
    return directory, corpus


def write_script(tmp_path, corpus, answers) -> str:
    """answers: maze_id -> text; every scenario shares the maze's answer."""
    script = {}
    for maze_id, _ in corpus.tests:
        if maze_id in answers:
            for scenario in DEFAULT_SCENARIOS:
                script[f"{maze_id}|{scenario.name}"] = answers[maze_id]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    return f"mock:{path}"


def keyless_script(tmp_path) -> str:
    """A mock script with no keys: every trial fails as a ProviderError."""
    path = tmp_path / "keyless.json"
    path.write_text("{}", encoding="utf-8")
    return f"mock:{path}"


def oracle_answers(corpus) -> dict:
    return {maze_id: solution_text(maze) for maze_id, maze in corpus.tests}


def make_spec(tmp_path, corpus_dir, endpoint, **kw) -> ExperimentSpec:
    defaults = dict(
        corpus_dir=corpus_dir,
        output_dir=tmp_path / "out",
        providers=[ProviderConfig(name="mock-a", model="mock-a-v1", endpoint=endpoint)],
        experiment_id="test-exp",
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRun:
    def test_record_completeness(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        summaries = run(spec, clock=lambda: 0.0)
        records = load_records(spec.output_dir / RECORDS_NAME)
        assert len(records) == 1 * 3 * 4  # providers x scenarios x test mazes
        assert all(s.complete_pct == 100.0 for s in summaries)

    def test_idempotent_rerun(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        log = (spec.output_dir / RECORDS_NAME).read_bytes()
        run(spec, clock=lambda: 0.0)
        assert (spec.output_dir / RECORDS_NAME).read_bytes() == log

    def test_resume_matches_uninterrupted(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        full = log_path.read_text(encoding="utf-8")
        lines = full.splitlines(keepends=True)
        log_path.write_text("".join(lines[:5]), encoding="utf-8")
        run(spec, clock=lambda: 0.0)
        assert log_path.read_text(encoding="utf-8") == full

    # A script that is not a JSON object stops the run instead (TestCredentials).
    @pytest.mark.parametrize("script", [{"*": ["Turn left"]}, {"*": 5}])
    def test_malformed_mock_script_is_provider_error(self, tmp_path, small_corpus, script):
        corpus_dir, corpus = small_corpus
        path = tmp_path / "bad-script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        spec = make_spec(tmp_path, corpus_dir, f"mock:{path}", scenarios=[Scenario("zero-shot", 0)])
        records = run_records(spec, clock=lambda: 0.0)
        faults = Counter(r.score(r.scoring_mode).first_fault[1] for r in records)
        assert faults == {FaultKind.PROVIDER_ERROR.value: len(corpus.tests)}

    def test_provider_error_scores_zero(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        # script only covers the first maze: the rest fail as provider errors
        first_id = corpus.tests[0][0]
        answers = {first_id: solution_text(corpus.tests[0][1])}
        endpoint = write_script(tmp_path, corpus, answers)
        spec = make_spec(tmp_path, corpus_dir, endpoint,
                         scenarios=[Scenario("zero-shot", 0)])
        summaries = run(spec, clock=lambda: 0.0)
        records = load_records(spec.output_dir / RECORDS_NAME)
        assert len(records) == 4  # failures still counted
        failed = [r for r in records if r.maze_id != first_id]
        for record in failed:
            assert (record.response, record.instructions, record.attempts) == ("", [], 0)
            for mode in (MODE_ORACLE, MODE_EXECUTION):
                assert record.score(mode) == RunScore(
                    False, 0.0, (0, FaultKind.PROVIDER_ERROR.value), mode
                )
        (summary,) = summaries
        assert summary.n == 4
        assert summary.complete_pct == pytest.approx(25.0)

    def test_over_long_position_is_rejected_not_raised(self, tmp_path, small_corpus):
        # int() refuses the 5,000-digit target; the run once raised after writing nothing.
        corpus_dir, corpus = small_corpus
        answers = oracle_answers(corpus)
        first_id = corpus.tests[0][0]
        long_line = "Walk forward to position " + "7" * 5000
        answers[first_id] = answers[first_id] + "\n" + long_line
        spec = make_spec(tmp_path, corpus_dir, write_script(tmp_path, corpus, answers),
                         scenarios=[Scenario("zero-shot", 0)])
        records = run_records(spec, clock=lambda: 0.0)
        assert len(records) == 4
        assert len(load_records(spec.output_dir / RECORDS_NAME)) == 4
        (record,) = [r for r in records if r.maze_id == first_id]
        assert record.rejected[-1][1:] == [long_line, "unrecognized instruction form"]

    def test_concurrency_matches_serial(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        serial = make_spec(tmp_path, corpus_dir, endpoint, output_dir=tmp_path / "s")
        threaded = make_spec(tmp_path, corpus_dir, endpoint, output_dir=tmp_path / "t",
                             concurrency=8)
        run(serial, clock=lambda: 0.0)
        run(threaded, clock=lambda: 0.0)
        assert (tmp_path / "s" / RECORDS_NAME).read_bytes() == (
            tmp_path / "t" / RECORDS_NAME
        ).read_bytes()

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_only_the_provider_call_runs_on_a_worker(
        self, tmp_path, small_corpus, monkeypatch, concurrency
    ):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, concurrency=concurrency)
        threads = defaultdict(list)

        def on_thread(name, fn):
            def recorded(*args, **kwargs):
                threads[name].append(threading.get_ident())
                return fn(*args, **kwargs)
            return recorded

        monkeypatch.setattr(gateway, "complete", on_thread("complete", gateway.complete))
        for name in ("parse_response", "score_run", "prompt_hash"):
            monkeypatch.setattr(runner, name, on_thread(name, getattr(runner, name)))
        run_records(spec, clock=lambda: 0.0)
        here, trials = threading.get_ident(), 3 * 4
        assert len(threads["complete"]) == trials and here not in threads["complete"]
        assert threads["parse_response"] == threads["prompt_hash"] == [here] * trials
        assert threads["score_run"] == [here] * 2 * trials  # one score per mode

    def test_each_reply_judged_once(self, tmp_path, small_corpus, monkeypatch):
        # One parse and one execution per reply, and one score per mode.
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        calls = defaultdict(int)
        for name in ("judge", "parse_response", "execute", "score_run"):
            def counted(*args, real=getattr(runner, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(runner, name, counted)
        run_records(spec, clock=lambda: 0.0)
        trials = 3 * len(corpus.tests)
        assert calls == {"judge": trials, "parse_response": trials, "execute": trials,
                         "score_run": 2 * trials}

    def test_prompt_error_raises_before_any_call(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, concurrency=4)
        built, calls = [], []
        real_build = runner.build_messages

        def build(*args, **kwargs):
            built.append(1)
            if len(built) == 5:
                raise ValueError("injected")
            return real_build(*args, **kwargs)

        monkeypatch.setattr(runner, "build_messages", build)
        monkeypatch.setattr(gateway, "complete", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match="injected"):
            run_records(spec, clock=lambda: 0.0)
        assert calls == []
        assert _load_records(spec.output_dir / RECORDS_NAME)[0] == []

    def test_malformed_reply_is_a_provider_error(self, tmp_path, small_corpus, monkeypatch):
        # The call was paid for, so content parts that are not text must be
        # recorded, not crash the run in parse_response.
        corpus_dir, corpus = small_corpus
        answers = oracle_answers(corpus)
        first_id = corpus.tests[0][0]
        zero_shot = Scenario("zero-shot", 0)
        maze_of = {build_messages(maze, [], zero_shot)[-1].content: maze_id
                   for maze_id, maze in corpus.tests}

        def transport(url, headers, payload, timeout):
            maze_id = maze_of[payload["messages"][-1]["content"]]
            content = answers[maze_id]
            if maze_id == first_id:
                content = [{"type": "text", "text": content}]
            return 200, {"choices": [{"message": {"content": content}}]}

        monkeypatch.setattr(gateway, "_http_transport", transport)
        spec = make_spec(tmp_path, corpus_dir, "http://127.0.0.1:9/v1/chat/completions",
                         scenarios=[zero_shot], concurrency=2)
        records = run_records(spec, clock=lambda: 0.0)
        assert len(records) == len(load_records(spec.output_dir / RECORDS_NAME)) == 4
        for record in records:
            score = record.score(MODE_ORACLE)
            if record.maze_id == first_id:
                assert score.first_fault == (0, FaultKind.PROVIDER_ERROR.value)
                assert "list" in record.trace["fault"]["detail"]
            else:
                assert score.complete

    def test_each_prompt_built_and_hashed_once(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, repeats=2, providers=[
            ProviderConfig(name=name, model=f"{name}-v1", endpoint=endpoint)
            for name in ("mock-a", "mock-b")])
        counts = defaultdict(int)
        for name in ("build_messages", "prompt_hash"):
            real = getattr(runner, name)

            def counted(*args, _real=real, _name=name, **kw):
                counts[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(runner, name, counted)
        scenarios_x_mazes = len(DEFAULT_SCENARIOS) * len(corpus.tests)
        run(spec, clock=lambda: 0.0)
        assert counts == {"build_messages": scenarios_x_mazes, "prompt_hash": scenarios_x_mazes}
        # A resume builds no more: its check looks the records up.
        log_path = spec.output_dir / RECORDS_NAME
        lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 2 * 2 * scenarios_x_mazes
        log_path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        counts.clear()
        run(spec, clock=lambda: 0.0)
        assert counts == {"build_messages": scenarios_x_mazes, "prompt_hash": scenarios_x_mazes}
        assert log_path.read_text(encoding="utf-8") == "".join(lines)

    def test_prompt_hash_recomputable(self, tmp_path, small_corpus):
        from mazenav.gateway import build_messages, prompt_hash
        from mazenav.runner import shots_for
        from mazenav.solver import reference_solution

        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        records = load_records(spec.output_dir / RECORDS_NAME)
        mazes = dict(corpus.tests)
        shots = [(m, reference_solution(m)) for _, m in corpus.shots]
        scenarios = {s.name: s for s in DEFAULT_SCENARIOS}
        for record in records:
            scenario = scenarios[record.scenario]
            messages = build_messages(
                mazes[record.maze_id], shots_for(scenario, shots), scenario
            )
            assert prompt_hash(messages) == record.prompt_hash


class TestResumeIntegrity:
    """A resumed log must hold only records made from the prompts this run
    would send; otherwise the run refuses before any provider call."""

    def cut_run(self, tmp_path, corpus_dir, corpus, **kw):
        """A run cut after 5 records, so a rerun has trials to make."""
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, **kw)
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        log_path.write_text("".join(lines[:5]), encoding="utf-8")
        return spec, log_path

    def assert_refused(self, spec, log_path, monkeypatch, match):
        log = log_path.read_bytes()
        calls = []
        monkeypatch.setattr(gateway, "complete", lambda *args, **kw: calls.append(args))
        with pytest.raises(SpecError, match=match):
            run(spec, clock=lambda: 0.0)
        assert calls == []
        assert log_path.read_bytes() == log

    def test_corpus_rebuilt_with_another_seed(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus)
        build_corpus(corpus_dir, GenConfig(seed=32), 4, 6)
        self.assert_refused(spec, log_path, monkeypatch,
                            r"record \('mock-a', 'mock-a-v1', 'zero-shot', 'test-000', 0\) "
                            r".* was made from another prompt; use a fresh output directory")

    def test_corpus_rebuilt_without_a_maze(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus,
                                      scenarios=[Scenario("zero-shot", 0)])
        # The same seed gives the same first two test mazes, and zero-shot
        # prompts hold no shots, so only test-002 and test-003 are stale.
        build_corpus(corpus_dir, GenConfig(seed=31), 2, 6)
        self.assert_refused(spec, log_path, monkeypatch,
                            r"'test-002', 0\) .* is for maze 'test-002', which the corpus "
                            r"does not hold; use a fresh output directory")

    def test_stale_record_behind_a_torn_tail(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus)
        with open(log_path, "a", encoding="utf-8") as log:
            log.write('{"torn')
        build_corpus(corpus_dir, GenConfig(seed=32), 4, 6)
        self.assert_refused(spec, log_path, monkeypatch, "was made from another prompt")

    def test_corpus_rebuilt_under_another_provider(self, tmp_path, small_corpus, monkeypatch):
        # The report puts every provider of the log in one table, so a record
        # of a provider the spec does not name must come from its prompts too.
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, scenarios=[Scenario("zero-shot", 0)])
        other = ProviderConfig(name="mock-b", model="mock-b-v1", endpoint=endpoint)
        run(dataclasses.replace(spec, providers=[other]), clock=lambda: 0.0)
        build_corpus(corpus_dir, GenConfig(seed=32), 4, 6)
        self.assert_refused(spec, spec.output_dir / RECORDS_NAME, monkeypatch,
                            r"record \('mock-b', 'mock-b-v1', 'zero-shot', 'test-000', 0\) "
                            r".* was made from another prompt; use a fresh output directory")

    def test_corpus_rebuilt_under_a_scenario_not_run(self, tmp_path, small_corpus, monkeypatch):
        # The run has no prompt of a scenario it does not run, so the refusal
        # comes from judging the reply, and names the scenario.
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus,
                                      scenarios=[ONE_SHOT, Scenario("zero-shot", 0)])
        build_corpus(corpus_dir, GenConfig(seed=32), 4, 6)
        self.assert_refused(dataclasses.replace(spec, scenarios=[Scenario("zero-shot", 0)]),
                            log_path, monkeypatch,
                            r"record \('mock-a', 'mock-a-v1', 'one-shot', 'test-000', 0\) .* is "
                            r"for scenario 'one-shot', which this spec does not run, and does not "
                            r"match its reply \(trace differs\); use a fresh output directory")

    def test_system_prompt_edited(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus)
        monkeypatch.setattr(gateway, "SYSTEM_PROMPT", gateway.SYSTEM_PROMPT + "Be brief.\n")
        # Records of a provider the spec does not name are checked too.
        other = make_spec(tmp_path, corpus_dir, spec.providers[0].endpoint, providers=[
            ProviderConfig(name="mock-b", model="mock-b-v1", endpoint=spec.providers[0].endpoint)])
        self.assert_refused(other, log_path, monkeypatch, "was made from another prompt")
        self.assert_refused(spec, log_path, monkeypatch, "was made from another prompt")

    def test_provider_re_pointed_to_another_model(self, tmp_path, small_corpus, monkeypatch):
        # The report groups records by provider name, so a name re-pointed to
        # another model would merge two models into one row. The log is not
        # mended either: its torn tail stays.
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus)
        with open(log_path, "a", encoding="utf-8") as log:
            log.write('{"torn')
        endpoint = spec.providers[0].endpoint
        for providers in (
            [ProviderConfig(name="mock-a", model="mock-a-v2", endpoint=endpoint)],
            [ProviderConfig(name="mock-b", model="mock-b-v1", endpoint=endpoint),
             ProviderConfig(name="mock-a", model="mock-a-v2", endpoint=endpoint)],
        ):
            self.assert_refused(dataclasses.replace(spec, providers=providers,
                                                    scenarios=[Scenario("one-shot", 1)]),
                                log_path, monkeypatch,
                                r"record \('mock-a', 'mock-a-v1', 'zero-shot', 'test-000', 0\) "
                                r".* is for model 'mock-a-v1', not 'mock-a-v2'; use a fresh "
                                r"output directory")

    @pytest.mark.parametrize("field, edit", [
        ("scores", lambda r: r["scores"][MODE_ORACLE].update(complete=False, partial=0.5)),
        ("trace", lambda r: r["trace"]["poses"].pop()),
        ("instructions", lambda r: r["instructions"][0].update(cell=-1)),
    ], ids=["score", "pose", "instruction"])
    def test_tampered_record_refused(self, tmp_path, small_corpus, monkeypatch, field, edit):
        # Each record is judged again from its reply, so an edit of what the
        # reply decides is refused, naming the field, whatever rule it suggests.
        corpus_dir, corpus = small_corpus
        spec, log_path = self.cut_run(tmp_path, corpus_dir, corpus)
        first, *rest = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(first)
        edit(record)
        log_path.write_text("".join([json.dumps(record) + "\n", *rest]), encoding="utf-8")
        self.assert_refused(spec, log_path, monkeypatch,
                            r"record \('mock-a', 'mock-a-v1', 'zero-shot', 'test-000', 0\) "
                            rf".* does not match its reply \({field} differs\); use a fresh "
                            r"output directory")

    def test_provider_error_records_judged_as_written(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, _ = small_corpus
        spec = make_spec(tmp_path, corpus_dir, keyless_script(tmp_path),
                         scenarios=[Scenario("zero-shot", 0)])
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        kept = log_path.read_text(encoding="utf-8")
        assert all(r.trace["fault"]["kind"] == FaultKind.PROVIDER_ERROR.value
                   for r in load_records(log_path))
        resumed = dataclasses.replace(spec, scenarios=[Scenario("zero-shot", 0), ONE_SHOT])
        run(resumed, clock=lambda: 0.0)
        assert log_path.read_text(encoding="utf-8").startswith(kept)
        # A failed call's record holds no reply.
        first, *rest = kept.splitlines(keepends=True)
        log_path.write_text("".join([json.dumps({**json.loads(first), "response": "Step in"})
                                     + "\n", *rest]), encoding="utf-8")
        self.assert_refused(resumed, log_path, monkeypatch,
                            r"'test-000', 0\) .* does not match its reply \(response differs\)")


def drop_final_turn(maze) -> str:
    """The reference solution without the turn that faces the exit, if it has one."""
    instrs = reference_solution(maze).instructions
    if isinstance(instrs[-2], Turn):
        instrs = instrs[:-2] + instrs[-1:]
    return render_sequence(instrs)


class TestExitRuleOnResume:
    """Records do not store the exit rule, but a clean exit that does not face
    the exit side shows the lenient one, and a WrongExitHeading fault the
    strict one; a resume under the other rule is refused before any call."""

    @pytest.mark.parametrize("provider", ["mock-a", "mock-b"])
    @pytest.mark.parametrize("first", [True, False], ids=["lenient-first", "strict-first"])
    def test_change_of_rule_refused(self, tmp_path, small_corpus, monkeypatch, first, provider):
        corpus_dir, corpus = small_corpus
        answers = {maze_id: drop_final_turn(maze) for maze_id, maze in corpus.tests}
        assert any(text != solution_text(maze) for (_, maze), text
                   in zip(corpus.tests, answers.values()))
        endpoint = write_script(tmp_path, corpus, answers)
        spec = make_spec(tmp_path, corpus_dir, endpoint, lenient_exit=first,
                         scenarios=[Scenario("zero-shot", 0)])
        run(spec, clock=lambda: 0.0)
        # The report compares providers in one table, so another provider's
        # records must fit the rule too.
        resumed = dataclasses.replace(
            spec, lenient_exit=not first, scenarios=[Scenario("zero-shot", 0), ONE_SHOT],
            providers=[ProviderConfig(name=provider, model=f"{provider}-v1", endpoint=endpoint)])
        TestResumeIntegrity().assert_refused(
            resumed, spec.output_dir / RECORDS_NAME, monkeypatch,
            rf"record \('mock-a', 'mock-a-v1', 'zero-shot', 'test-00\d', 0\) .* was scored "
            rf"with lenient_exit {json.dumps(first)}, not {json.dumps(not first)}; "
            "use a fresh output directory")

    @pytest.mark.parametrize("first", [True, False], ids=["lenient-first", "strict-first"])
    def test_change_of_rule_accepted_when_no_run_turns_on_it(self, tmp_path, small_corpus, first):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, lenient_exit=first,
                         scenarios=[Scenario("zero-shot", 0)])
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        kept = log_path.read_text(encoding="utf-8")
        resumed = dataclasses.replace(spec, lenient_exit=not first,
                                      scenarios=[Scenario("zero-shot", 0), ONE_SHOT])
        (summary_zero, summary_one) = run(resumed, clock=lambda: 0.0)
        assert log_path.read_text(encoding="utf-8").startswith(kept)
        assert summary_zero.complete_pct == summary_one.complete_pct == 100.0


class TestFailFast:
    """A trial that crashes, or an interrupt, stops the run: queued trials
    make no provider call and the records written before it stay."""

    def crashing_run(self, tmp_path, monkeypatch, exc, crash_at, concurrency):
        corpus_dir = tmp_path / "corpus"
        corpus = build_corpus(corpus_dir, GenConfig(seed=31), 34, 6)
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, concurrency=concurrency)
        calls = []
        real_complete, real_parse = gateway.complete, runner.parse_response

        def slow_complete(*args, **kwargs):
            calls.append(1)
            time.sleep(0.001)  # a provider round-trip, short
            return real_complete(*args, **kwargs)

        parses = []

        def parse(text):
            parses.append(1)
            if len(parses) == crash_at:
                raise exc("injected")
            return real_parse(text)

        monkeypatch.setattr(gateway, "complete", slow_complete)
        monkeypatch.setattr(runner, "parse_response", parse)
        with pytest.raises(exc, match="injected"):
            run(spec, clock=lambda: 0.0)
        return spec, calls, 3 * len(corpus.tests)

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_crash_in_first_trial_stops_queued_trials(
        self, tmp_path, monkeypatch, exc, concurrency
    ):
        spec, calls, planned = self.crashing_run(tmp_path, monkeypatch, exc, 1, concurrency)
        assert planned == 102
        assert len(calls) < planned // 2

    def test_records_before_the_crash_stay_and_resume(self, tmp_path, monkeypatch):
        spec, calls, planned = self.crashing_run(tmp_path, monkeypatch, RuntimeError, 3, 1)
        log_path = spec.output_dir / RECORDS_NAME
        kept = log_path.read_text(encoding="utf-8")
        assert len(kept.splitlines()) == 2
        monkeypatch.undo()
        run(spec, clock=lambda: 0.0)
        full = log_path.read_text(encoding="utf-8")
        assert full.startswith(kept)
        assert len(full.splitlines()) == planned


class TestCredentials:
    """A missing or rejected credential, or a request the provider refuses,
    stops the run instead of recording zeros that a resume would keep;
    queued calls are cancelled."""

    def http_run(self, tmp_path, monkeypatch, transport, n_test, concurrency,
                 error=AuthError, match="MAZENAV_TEST_KEY|http 401"):
        corpus_dir = tmp_path / "corpus"
        build_corpus(corpus_dir, GenConfig(seed=31), n_test, 6)
        monkeypatch.setattr(gateway, "_http_transport", transport)
        provider = ProviderConfig(name="live", model="live-1",
                                  endpoint="http://127.0.0.1:9/v1/chat/completions",
                                  credential_env="MAZENAV_TEST_KEY")
        spec = make_spec(tmp_path, corpus_dir, provider.endpoint, providers=[provider],
                         concurrency=concurrency)
        with pytest.raises(error, match=match):
            run_records(spec, clock=lambda: 0.0)
        assert _load_records(spec.output_dir / RECORDS_NAME)[0] == []
        return 3 * n_test

    def test_unset_variable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAZENAV_TEST_KEY", raising=False)
        calls = []
        self.http_run(tmp_path, monkeypatch, lambda *args: calls.append(args), 2, 2)
        assert calls == []

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_rejected_credential(self, tmp_path, monkeypatch, concurrency):
        monkeypatch.setenv("MAZENAV_TEST_KEY", "revoked")
        calls = []

        def transport(*args):
            calls.append(args)
            time.sleep(0.001)  # a provider round-trip, short
            return 401, {}

        planned = self.http_run(tmp_path, monkeypatch, transport, 34, concurrency)
        assert planned == 102
        assert len(calls) < planned // 2

    @pytest.mark.parametrize("script", [None, [1], "Turn left"],
                             ids=["missing", "list", "string"])
    def test_unusable_mock_script(self, tmp_path, script):
        # Every trial would fail the same way, and a resume would keep the zeros.
        corpus_dir = tmp_path / "corpus"
        build_corpus(corpus_dir, GenConfig(seed=31), 4, 6)
        path = tmp_path / "script.json"
        if script is not None:
            path.write_text(json.dumps(script), encoding="utf-8")
        spec = make_spec(tmp_path, corpus_dir, f"mock:{path}", concurrency=2)
        with pytest.raises(RequestRejected, match=f"mock script {path}"):
            run_records(spec, clock=lambda: 0.0)
        assert _load_records(spec.output_dir / RECORDS_NAME)[0] == []

    @pytest.mark.parametrize("status", [400, 404])
    def test_rejected_request(self, tmp_path, monkeypatch, status):
        monkeypatch.setenv("MAZENAV_TEST_KEY", "valid")
        calls = []

        def transport(*args):
            calls.append(args)
            time.sleep(0.001)  # a provider round-trip, short
            return status, {"error": {"message": "model 'live-1' does not exist"}}

        planned = self.http_run(tmp_path, monkeypatch, transport, 34, 4, RequestRejected,
                                f"http {status}.*model 'live-1' does not exist")
        assert planned == 102
        assert len(calls) < planned // 2


class TestRunSummaries:
    def test_summaries_equal_those_of_the_written_log(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint, scoring_mode=MODE_EXECUTION)
        log_path = spec.output_dir / RECORDS_NAME
        run(spec, clock=lambda: 0.0)
        log_path.write_text(
            "".join(log_path.read_text(encoding="utf-8").splitlines(keepends=True)[:5]),
            encoding="utf-8",
        )
        summaries = run(spec, clock=lambda: 0.0)
        assert summaries == summaries_from(load_records(log_path), MODE_EXECUTION)

    def test_log_read_once(self, tmp_path, small_corpus, monkeypatch):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        lines = []
        real = RunRecord.from_json_line.__func__
        monkeypatch.setattr(
            RunRecord, "from_json_line",
            classmethod(lambda cls, line: lines.append(line) or real(cls, line)),
        )
        run(spec, clock=lambda: 0.0)
        assert len(lines) == 3 * 4
        # A last record without its newline is parsed once too, and the
        # resume ends its line through the handle it appends with.
        log_path = spec.output_dir / RECORDS_NAME
        full = log_path.read_text(encoding="utf-8")
        kept = full.splitlines()[:5]
        log_path.write_text("\n".join(kept), encoding="utf-8")
        lines.clear()
        run(spec, clock=lambda: 0.0)
        assert lines == kept
        assert log_path.read_text(encoding="utf-8") == full


class TestRecordLine:
    def test_same_bytes_as_asdict(self, tmp_path, small_corpus, monkeypatch):
        import dataclasses

        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(
            tmp_path,
            corpus_dir,
            endpoint,
            providers=[
                ProviderConfig(name="good", model="g", endpoint=endpoint),
                ProviderConfig(name="broken", model="b", endpoint=keyless_script(tmp_path)),
            ],
        )
        written = []
        real = RunRecord.to_json_line

        def checked(record):
            written.append(record.provider)
            line = real(record)
            assert line == json.dumps(
                dataclasses.asdict(record), sort_keys=True, separators=(",", ":")
            )
            return line

        monkeypatch.setattr(RunRecord, "to_json_line", checked)
        run(spec, clock=lambda: 0.0)
        assert written == ["good"] * 12 + ["broken"] * 12


class TestShotSelection:
    def test_zero_shot(self):
        assert shots_for(Scenario("zero-shot", 0), list("abcdef")) == []

    def test_one_shot_uses_first(self):
        assert shots_for(Scenario("one-shot", 1), list("abcdef")) == ["a"]

    def test_few_shot_skips_reserved_first(self):
        assert shots_for(Scenario("few-shot", 5), list("abcdef")) == list("bcdef")

    def test_few_shot_requires_k_plus_one(self):
        with pytest.raises(SpecError):
            shots_for(Scenario("few-shot", 5), list("abcde"))

    def test_insufficient_shots(self):
        with pytest.raises(SpecError):
            shots_for(Scenario("one-shot", 1), [])


class TestRecordLog:
    def test_torn_tail_repaired(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        full = log_path.read_text(encoding="utf-8")
        log_path.write_text(full + '{"torn', encoding="utf-8")
        run(spec, clock=lambda: 0.0)
        assert log_path.read_text(encoding="utf-8") == full

    def test_unterminated_whole_record_kept(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        full = log_path.read_text(encoding="utf-8")
        log_path.write_text(full[:-1], encoding="utf-8")
        assert len(load_records(log_path)) == len(full.splitlines())
        run(spec, clock=lambda: 0.0)
        assert log_path.read_text(encoding="utf-8") == full

    def test_mid_file_corruption_raises(self, tmp_path):
        log_path = tmp_path / RECORDS_NAME
        log_path.write_text("not json\n" + "also not json\n", encoding="utf-8")
        with pytest.raises(SpecError):
            _load_records(log_path)

    @staticmethod
    def assert_second_record_corrupt(tmp_path, small_corpus, edit, reason):
        """With ``edit`` applied to its second record, a run's log is corrupt at
        line 2 for ``reason``; as an unterminated last line it reads as torn,
        and is skipped."""
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        edit(record)
        bad = json.dumps(record) + "\n"
        log_path.write_text("".join([lines[0], bad, *lines[2:]]), encoding="utf-8")
        with pytest.raises(SpecError, match=f"corrupt record log .* at line 2: {reason}"):
            load_records(log_path)
        log_path.write_text("".join([*lines[:-1], bad.rstrip("\n")]), encoding="utf-8")
        assert len(load_records(log_path)) == len(lines) - 1

    @pytest.mark.parametrize("scores", [{MODE_ORACLE: {}}, "x", {MODE_ORACLE: {}, MODE_EXECUTION: 1}])
    def test_record_without_both_scores_is_corrupt(self, tmp_path, small_corpus, scores):
        self.assert_second_record_corrupt(tmp_path, small_corpus,
                                          lambda r: r.update(scores=scores), "scores")

    @pytest.mark.parametrize("change", [
        {"repeat": "0"}, {"repeat": True}, {"repeat": 0.0}, {"maze_id": 7},
        {"provider": None}, {"model": ["m"]}, {"scenario": 1},
    ], ids=["repeat-str", "repeat-bool", "repeat-float", "maze-int", "provider-null",
            "model-list", "scenario-int"])
    def test_record_with_mistyped_key_is_corrupt(self, tmp_path, small_corpus, change):
        self.assert_second_record_corrupt(tmp_path, small_corpus, lambda r: r.update(change),
                                          f".*{next(iter(change))}")

    @pytest.mark.parametrize("reason, edit", [
        ("scoring_mode", lambda r: r.update(scoring_mode="exact")),
        ("scoring_mode", lambda r: r.update(scoring_mode=None)),
        ("scores", lambda r: r["scores"].update({MODE_EXECUTION: {}})),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].pop("first_fault")),
        ("scores", lambda r: r["scores"][MODE_ORACLE].update(complete="true")),
        ("scores", lambda r: r["scores"][MODE_ORACLE].update(complete=1)),
        ("scores", lambda r: r["scores"][MODE_ORACLE].update(partial="1.0")),
        ("scores", lambda r: r["scores"][MODE_ORACLE].update(partial=True)),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].update(first_fault=[1])),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].update(first_fault=["1", "OffGrid"])),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].update(first_fault=[True, "OffGrid"])),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].update(first_fault=[1, 2])),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].update(first_fault="OffGrid")),
        ("scores", lambda r: r["scores"][MODE_EXECUTION].update(mode=None)),
        ("trace", lambda r: r.update(trace=[])),
        ("trace", lambda r: r["trace"].pop("poses")),
        ("trace", lambda r: r["trace"].update(poses=[[8]])),
        ("trace", lambda r: r["trace"].update(poses=[["8", "N"]])),
        ("trace", lambda r: r["trace"].update(poses=[[True, "N"]])),
        ("trace", lambda r: r["trace"].update(poses=[[8, 0]])),
        ("response", lambda r: r.update(response=5)),
    ], ids=["mode-unknown", "mode-null", "execution-empty", "no-first-fault", "complete-str",
            "complete-int", "partial-str", "partial-bool", "fault-short", "fault-step-str",
            "fault-step-bool", "fault-kind-int", "fault-str", "mode-in-score-null",
            "trace-list", "no-poses", "pose-short", "pose-cell-str", "pose-cell-bool",
            "pose-heading-int", "response-int"])
    def test_record_with_unreadable_mode_or_score_is_corrupt(self, tmp_path, small_corpus,
                                                             reason, edit):
        # The report or the resume check would stop on these with a traceback, or misread them.
        self.assert_second_record_corrupt(tmp_path, small_corpus, edit, reason)

    def test_resume_refuses_mistyped_repeat_before_any_call(self, tmp_path, small_corpus,
                                                            monkeypatch):
        # A string repeat would miss the resume check and its trial be paid for again.
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        log_path = spec.output_dir / RECORDS_NAME
        first, *rest = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        edited = "".join([json.dumps({**json.loads(first), "repeat": "0"}) + "\n", *rest])
        log_path.write_text(edited, encoding="utf-8")
        calls = []
        monkeypatch.setattr(gateway, "complete", lambda *args, **kw: calls.append(args))
        with pytest.raises(SpecError, match="corrupt record log .* at line 1: repeat"):
            run(spec, clock=lambda: 0.0)
        assert calls == []
        assert log_path.read_text(encoding="utf-8") == edited

    def test_load_records_empty(self, tmp_path):
        with pytest.raises(SpecError):
            load_records(tmp_path / RECORDS_NAME)

    def test_record_round_trip(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        for record in load_records(spec.output_dir / RECORDS_NAME):
            assert RunRecord.from_json_line(record.to_json_line()) == record


class TestReport:
    def run_mixed(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        answers = oracle_answers(corpus)
        # second maze answers with a two-line truncation: partial credit
        second = corpus.tests[1][0]
        answers[second] = "\n".join(answers[second].splitlines()[:2])
        endpoint = write_script(tmp_path, corpus, answers)
        spec = make_spec(tmp_path, corpus_dir, endpoint)
        run(spec, clock=lambda: 0.0)
        return load_records(spec.output_dir / RECORDS_NAME)

    def test_tables_rendered(self, tmp_path, small_corpus):
        records = self.run_mixed(tmp_path, small_corpus)
        text = report_text(records)
        assert "Complete Path Accuracy [%]" in text
        assert "Partial Path Accuracy [%]" in text
        assert "few-shot" in text and "zero-shot" in text
        assert "75.0" in text  # 3 of 4 mazes complete

    def test_mode_override(self, tmp_path, small_corpus):
        records = self.run_mixed(tmp_path, small_corpus)
        text = report_text(records, MODE_EXECUTION)
        assert "Scoring mode: execution" in text

    def test_mixed_modes_refused(self, tmp_path, small_corpus):
        records = self.run_mixed(tmp_path, small_corpus)
        import dataclasses

        mutated = [records[0]] + [dataclasses.replace(records[1], scoring_mode=MODE_EXECUTION)]
        with pytest.raises(SpecError):
            summaries_from(mutated)
        # explicit mode lifts the refusal
        assert summaries_from(mutated, MODE_ORACLE)

    def test_two_models_under_one_provider_refused(self, tmp_path, small_corpus):
        records = self.run_mixed(tmp_path, small_corpus)
        mutated = records[:-1] + [dataclasses.replace(records[-1], model="mock-a-v2")]
        for mode in (None, MODE_ORACLE, MODE_EXECUTION):
            for render in (report_text, summary_csv, summaries_from):
                with pytest.raises(SpecError, match="records of provider 'mock-a' mix models "
                                                    "'mock-a-v1' and 'mock-a-v2'"):
                    render(mutated, mode)

    def test_empty_report_rejected(self):
        for render in (report_text, summary_csv, summaries_from):
            with pytest.raises(SpecError, match="empty record log"):
                render([])

    @pytest.mark.parametrize("mode", [None, MODE_EXECUTION])
    def test_one_walk_per_report(self, tmp_path, small_corpus, monkeypatch, mode):
        # Each report decodes every record's score once, in the report's mode.
        records = self.run_mixed(tmp_path, small_corpus)
        decoded = []
        real = RunScore.from_dict.__func__
        monkeypatch.setattr(
            RunScore, "from_dict",
            classmethod(lambda cls, data: decoded.append(data) or real(cls, data)),
        )
        for render in (report_text, summary_csv):
            decoded.clear()
            render(records, mode)
            assert len(decoded) == len(records)
        decoded.clear()
        text, csv_text = render_reports(records, mode)
        assert len(decoded) == len(records)
        assert text == report_text(records, mode)
        assert csv_text == summary_csv(records, mode)

    def test_csv_layout(self, tmp_path, small_corpus):
        records = self.run_mixed(tmp_path, small_corpus)
        csv_text = summary_csv(records)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "model,scenario,n,complete_pct,partial_pct"
        assert len(lines) == 1 + 3  # one provider x three scenarios

    def test_csv_quotes_a_name_with_a_comma(self, tmp_path, small_corpus):
        import csv
        import dataclasses

        records = self.run_mixed(tmp_path, small_corpus)
        renamed = [dataclasses.replace(r, provider='gpt-4o, t=0 "eu"') for r in records]
        rows = list(csv.reader(summary_csv(renamed).splitlines()))
        assert [len(row) for row in rows] == [5] * 4
        assert {row[0] for row in rows[1:]} == {'gpt-4o, t=0 "eu"'}

    def test_rows_sorted_ascending_by_few_shot(self, tmp_path, small_corpus):
        corpus_dir, corpus = small_corpus
        good = write_script(tmp_path, corpus, oracle_answers(corpus))
        spec = make_spec(
            tmp_path,
            corpus_dir,
            good,
            providers=[
                ProviderConfig(name="strong", model="s", endpoint=good),
                ProviderConfig(name="weak", model="w", endpoint=keyless_script(tmp_path)),
            ],
        )
        run(spec, clock=lambda: 0.0)
        text = report_text(load_records(spec.output_dir / RECORDS_NAME))
        table = text[text.index("Complete Path"):]
        assert table.index("weak") < table.index("strong")

    @pytest.mark.parametrize("kept, sorted_by", [(("one-shot", "zero-shot"), "one-shot"),
                                                  (("zero-shot",), "zero-shot")])
    def test_titles_name_the_scenario_rows_are_sorted_by(self, tmp_path, small_corpus,
                                                          kept, sorted_by):
        # A log without few-shot records sorts its rows by its first scenario column.
        records = [r for r in self.run_mixed(tmp_path, small_corpus) if r.scenario in kept]
        text = report_text(records)
        for metric in ("Complete", "Partial"):
            assert f"\n{metric} Path Accuracy [%] (sorted by {sorted_by} performance)\n" in text
        assert "few-shot" not in text


class TestSpecLoading:
    def test_load_valid(self, tmp_path, small_corpus):
        corpus_dir, _ = small_corpus
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(json.dumps({
            "corpus": str(corpus_dir),
            "output": "out",
            "providers": [
                {"name": "mock-a", "model": "a-v1", "endpoint": "mock:x.json"}
            ],
            "scenarios": [{"name": "zero-shot", "k": 0}],
            "concurrency": 2,
        }), encoding="utf-8")
        spec = load_spec(spec_file)
        assert spec.concurrency == 2
        assert spec.experiment_id == "exp"
        assert [s.name for s in spec.scenarios] == ["zero-shot"]

    def test_relative_mock_script_resolves_against_the_spec(self, tmp_path, small_corpus,
                                                           monkeypatch):
        corpus_dir, _ = small_corpus
        (tmp_path / "specs").mkdir()
        spec_file = tmp_path / "specs" / "exp.json"
        absolute = f"mock:{tmp_path / 'abs.json'}"
        live = "http://127.0.0.1:9/v1/chat/completions"
        spec_file.write_text(json.dumps({
            "corpus": str(corpus_dir),
            "output": "out",
            "providers": [{"name": name, "model": "m", "endpoint": endpoint}
                          for name, endpoint in (("rel", "mock:sub/x.json"),
                                                 ("abs", absolute), ("live", live))],
        }), encoding="utf-8")
        monkeypatch.chdir(corpus_dir)
        assert [p.endpoint for p in load_spec(spec_file).providers] == [
            f"mock:{(tmp_path / 'specs' / 'sub' / 'x.json').resolve()}", absolute, live]

    def test_defaults_three_scenarios(self, tmp_path, small_corpus):
        corpus_dir, _ = small_corpus
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(json.dumps({
            "corpus": str(corpus_dir),
            "output": "out",
            "providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json"}],
        }), encoding="utf-8")
        assert [s.name for s in load_spec(spec_file).scenarios] == [
            "zero-shot", "one-shot", "few-shot",
        ]

    def test_missing_providers(self, tmp_path):
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(json.dumps({"corpus": "c", "output": "o"}), encoding="utf-8")
        with pytest.raises(SpecError):
            load_spec(spec_file)

    def test_sample_config_loads(self):
        sample = Path(__file__).parent.parent / "configs" / "experiment.sample.json"
        spec = load_spec(sample)
        assert [p.name for p in spec.providers] == ["gpt-4o-mini", "deepseek-chat"]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SpecError):
            load_spec(tmp_path / "missing.json")

    def test_bad_values(self, tmp_path, small_corpus):
        corpus_dir, _ = small_corpus
        provider = {"name": "x", "model": "good", "endpoint": "mock:x.json"}
        for override in (
            {"concurrency": 0},
            {"scoring_mode": "vibes"},
            {"repeats": 0},
            {"providers": [{**provider, "rate_per_s": 0}]},
            {"providers": [{**provider, "rate_per_s": -2.0}]},
            {"providers": [provider, {**provider, "model": "bad"}]},
            {"scenarios": [{"name": "one-shot", "k": 1}, {"name": "one-shot", "k": 1}]},
            {"scenarios": [{"name": "one-shot", "k": 1}, {"name": "one-shot", "k": 2}]},
            {"lenient_exit": "false"},
            {"concurrency": 2.9},
            {"repeats": True},
            {"providers": [{**provider, "temperature": "0.2"}]},
            {"providers": [{**provider, "max_output_tokens": "2048"}]},
            {"scenarios": [{"name": "one-shot", "k": 1.5}]},
            {"repeat": 3},
            {"concurency": 8},
            {"lenient-exit": True},
            {"experiment_id": 7},
            {"scenarios": []},
            {"providers": [{**provider, "max_retries": 1000000}]},
            {"providers": [{**provider, "endpoint": "htp://127.0.0.1:9/v1"}]},
        ):
            payload = {
                "corpus": str(corpus_dir),
                "output": "out",
                "providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json"}],
            }
            payload.update(override)
            spec_file = tmp_path / "exp.json"
            spec_file.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(SpecError):
                load_spec(spec_file)


    @pytest.mark.parametrize("entry, field", [
        ({"providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json",
                         "temperature": "0.2"}]}, "temperature"),
        ({"providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json",
                         "timeout_s": True}]}, "timeout_s"),
        ({"providers": [{"name": "m", "model": 1, "endpoint": "mock:x.json"}]}, "model"),
        ({"scenarios": [{"name": "one-shot", "k": 1.5}]}, "k"),
        ({"scenarios": [{"name": 1, "k": 1}]}, "name"),
        # json.dumps writes these as the literals NaN and Infinity, which json.loads reads.
        ({"providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json",
                         "temperature": float("nan")}]}, "temperature"),
        ({"providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json",
                         "timeout_s": float("inf")}]}, "timeout_s"),
        ({"providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json",
                         "rate_per_s": float("inf")}]}, "rate_per_s"),
    ])
    def test_field_types_checked(self, tmp_path, small_corpus, entry, field):
        corpus_dir, _ = small_corpus
        spec_file = tmp_path / "exp.json"
        spec_file.write_text(json.dumps({
            "corpus": str(corpus_dir), "output": "out",
            "providers": [{"name": "m", "model": "m1", "endpoint": "mock:x.json"}], **entry,
        }), encoding="utf-8")
        with pytest.raises(SpecError, match=f"{field} must be"):
            load_spec(spec_file)


def test_repeats_dimension(tmp_path, small_corpus):
    corpus_dir, corpus = small_corpus
    endpoint = write_script(tmp_path, corpus, oracle_answers(corpus))
    spec = make_spec(tmp_path, corpus_dir, endpoint,
                     scenarios=[Scenario("zero-shot", 0)], repeats=3)
    summaries = run(spec, clock=lambda: 0.0)
    records = load_records(spec.output_dir / RECORDS_NAME)
    assert len(records) == 4 * 3
    assert {r.repeat for r in records} == {0, 1, 2}
    (summary,) = summaries
    assert summary.n == 12
