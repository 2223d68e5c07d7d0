import hashlib
import importlib
import json
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from mazenav.cli import main
from mazenav.textform import load_description, serialize


@pytest.fixture
def m0_file(tmp_path, m0):
    path = tmp_path / "m0.maze"
    path.write_text(serialize(m0).text, encoding="utf-8")
    return path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestGen:
    def test_writes_corpus(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c",
                       "--n-test", 3, "--n-shot", 2, "--seed", 7) == 0
        assert (tmp_path / "c" / "manifest.json").exists()
        assert (tmp_path / "c" / "shot-001.maze").exists()
        assert "3 test + 2 shot" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        run_cli("--workdir", tmp_path, "gen", "--out", "a", "--n-test", 2, "--n-shot", 1)
        run_cli("--workdir", tmp_path, "gen", "--out", "b", "--n-test", 2, "--n-shot", 1)
        a = (tmp_path / "a" / "test-000.maze").read_text()
        b = (tmp_path / "b" / "test-000.maze").read_text()
        assert a == b

    @pytest.mark.parametrize("options, digest", [
        ((), "04db7840a16cbca12a2499533e817a3dc54044ab567918f7c2fe3ccd5373ad55"),
        (("--rows", 6, "--cols", 10, "--wall-count", 4, "--min-path", 10, "--max-path", 14,
          "--seed", 1, "--n-test", 10, "--n-shot", 0),
         "ec05a594b5c835a2e1f4caee0c12f9da58f29fafe8c506acf8bb3b8cd9a51afa"),
        (("--any-sides",), "0df0f132663c65f91ed8164ebc47d57ade2c55c22d9cff3e4fe979457d6dc886"),
        (("--rows", 12, "--cols", 3),
         "25c1842422b67a2e9fc23da381351a35b3088890fa70a5ccbb8596490135bdd1"),
    ])
    def test_corpus_bytes_pinned(self, tmp_path, options, digest):
        # The manifest holds every maze file's sha256, so it pins the corpus.
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c", *options) == 0
        manifest = (tmp_path / "c" / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == digest

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c",
                       "--rows", 10000, "--cols", 10000) == 1
        assert "cells" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_no_test_mazes_rejected(self, tmp_path, capsys):
        # eval and mock-eval refuse such a corpus, so gen does not write it.
        assert run_cli("--workdir", tmp_path, "gen", "--out", "empty",
                       "--n-test", 0, "--n-shot", 0) == 1
        err = capsys.readouterr().err
        assert "corpus has no test mazes" in err and "--n-test" in err
        assert not (tmp_path / "empty").exists()

    @pytest.mark.parametrize("options, bound", [
        (("--rows", 10, "--cols", 10), "max_path must be >= 9"),
        (("--rows", 30, "--cols", 30), "max_path must be >= 29"),
        (("--rows", 500, "--cols", 500), "max_path must be >= 499"),
        (("--rows", 2, "--cols", 5, "--min-path", 20, "--max-path", 30), "min_path must be <= 9"),
    ])
    def test_unmeetable_window_rejected_at_once(self, tmp_path, capsys, options, bound):
        # Each ran every one of the 100,000 attempts before it failed.
        for command in (("gen", "--out", "c"), ("serialize",)):
            start = time.perf_counter()
            assert run_cli("--workdir", tmp_path, *command, *options) == 1
            assert time.perf_counter() - start < 1.0
            assert bound in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_work_budget_ends_a_window_few_walls_cannot_meet(self, tmp_path, capsys, monkeypatch):
        # The window passes the arithmetic check; unbudgeted, it ran all
        # 100,000 attempts (about 40 s).
        monkeypatch.setattr(importlib.import_module("mazenav.generate"), "WORK_BUDGET", 200_000)
        start = time.perf_counter()
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c", "--rows", 30, "--cols", 30,
                       "--wall-count", 4, "--min-path", 800, "--max-path", 900) == 1
        assert time.perf_counter() - start < 1.0
        assert "work budget of 200,000 cell visits" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


class TestSolveRenderSerialize:
    def test_solve_prints_golden(self, tmp_path, m0_file, golden_solution, capsys):
        assert run_cli("--workdir", tmp_path, "solve", "--maze", "m0.maze") == 0
        assert capsys.readouterr().out == golden_solution

    def test_render(self, tmp_path, m0_file, capsys):
        assert run_cli("--workdir", tmp_path, "render", "--maze", "m0.maze") == 0
        out = capsys.readouterr().out
        assert "^" in out and "x" in out

    def test_render_with_solution_overlay(self, tmp_path, m0_file, capsys):
        assert run_cli("--workdir", tmp_path, "render", "--maze", "m0.maze",
                       "--solution") == 0
        assert capsys.readouterr().out.count("*") == 4

    def test_serialize_round_trips_maze_file(self, tmp_path, m0_file, m0, capsys):
        assert run_cli("--workdir", tmp_path, "serialize", "--maze", "m0.maze") == 0
        assert capsys.readouterr().out == serialize(m0).text

    def test_serialize_from_seed(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "serialize", "--seed", 5) == 0
        assert "ENTRANCE at" in capsys.readouterr().out


class TestVerify:
    def test_oracle_answer(self, tmp_path, m0_file, golden_solution, capsys):
        (tmp_path / "answer.txt").write_text(golden_solution, encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "verify", "--maze", "m0.maze",
                       "--answer", "answer.txt") == 0
        out = capsys.readouterr().out
        assert "complete=true partial=1.000" in out

    def test_flawed_answer(self, tmp_path, m0_file, golden_solution, capsys):
        flawed = "\n".join(golden_solution.splitlines()[:3])
        (tmp_path / "answer.txt").write_text(flawed, encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "verify", "--maze", "m0.maze",
                       "--answer", "answer.txt") == 0
        out = capsys.readouterr().out
        assert "complete=false" in out
        assert "partial=0.333" in out

    def test_execution_mode_flag(self, tmp_path, m0_file, golden_solution, capsys):
        (tmp_path / "answer.txt").write_text(golden_solution, encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "verify", "--maze", "m0.maze",
                       "--answer", "answer.txt", "--mode", "execution") == 0
        assert "complete=true" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["oracle-match", "execution"])
    @pytest.mark.parametrize("edit", ["whole", "first-two", "junk-inside", "wrong-turn",
                                      "prose-around", "empty"])
    def test_prints_what_the_record_stores(self, tmp_path, capsys, mode, edit):
        from mazenav.solver import solution_text

        assert run_cli("--workdir", tmp_path, "gen", "--out", "c", "--n-test", 1) == 0
        lines = solution_text(load_description(tmp_path / "c" / "test-000.maze")).splitlines()
        reply = "\n".join({
            "whole": lines,
            "first-two": lines[:2],
            "junk-inside": lines[:2] + ["I am not sure here."] + lines[2:],
            "wrong-turn": [line.replace("left", "LEFT").replace("right", "left")
                           .replace("LEFT", "right") for line in lines],
            "prose-around": ["Here is the route:"] + lines + ["Done."],
            "empty": [],
        }[edit])
        (tmp_path / "reply.txt").write_text(reply, encoding="utf-8")
        (tmp_path / "script.json").write_text(json.dumps({"test-000|zero-shot": reply}),
                                              encoding="utf-8")
        (tmp_path / "exp.json").write_text(json.dumps({
            "corpus": "c", "output": "out", "scenarios": [{"name": "zero-shot", "k": 0}],
            "providers": [{"name": "p", "model": "m",
                           "endpoint": f"mock:{tmp_path / 'script.json'}"}],
        }), encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 0
        record = json.loads((tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8"))
        assert record["response"] == reply
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "verify", "--maze", "c/test-000.maze",
                       "--answer", "reply.txt", "--mode", mode) == 0
        score = record["scores"][mode]
        expected = [f"complete={str(score['complete']).lower()} partial={score['partial']:.3f}"]
        if score["first_fault"]:
            step, kind = score["first_fault"]
            expected.append(f"first fault: step {step} ({kind})")
        out = capsys.readouterr().out.splitlines()
        assert out[:len(expected)] == expected
        assert sum(line.startswith("first fault") for line in out) == len(expected) - 1


class TestErrors:
    def test_missing_maze_file(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "solve", "--maze", "nope.maze") == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_description(self, tmp_path, capsys):
        (tmp_path / "bad.maze").write_text("not a maze\n", encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "render", "--maze", "bad.maze") == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_as_maze(self, tmp_path, capsys):
        (tmp_path / "adir").mkdir()
        assert run_cli("--workdir", tmp_path, "render", "--maze", "adir") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "render", "serialize"])
    def test_maze_file_not_utf8_names_its_file(self, tmp_path, capsys, command):
        (tmp_path / "bad.maze").write_bytes(b"\xff\xfe maze\n")
        assert run_cli("--workdir", tmp_path, command, "--maze", "bad.maze") == 1
        assert f"error: {tmp_path / 'bad.maze'} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "render", "serialize", "verify"])
    def test_malformed_description_names_its_file(self, tmp_path, capsys, command):
        (tmp_path / "bad.maze").write_text("not a maze\n", encoding="utf-8")
        (tmp_path / "answer.txt").write_text("Turn left\n", encoding="utf-8")
        answer = ("--answer", "answer.txt") if command == "verify" else ()
        assert run_cli("--workdir", tmp_path, command, "--maze", "bad.maze", *answer) == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'bad.maze'}: line 1: expected "
                                           "description header and size line: 'not a maze'\n")

    def test_answer_file_not_utf8_names_its_file(self, tmp_path, m0_file, capsys):
        (tmp_path / "answer.txt").write_bytes(b"\xff\xfe")
        assert run_cli("--workdir", tmp_path, "verify", "--maze", "m0.maze",
                       "--answer", "answer.txt") == 1
        assert f"error: {tmp_path / 'answer.txt'} is not UTF-8 text" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            run_cli("frobnicate")
        assert info.value.code == 2


class TestEvalAndReport:
    def build_experiment(self, tmp_path):
        from mazenav.corpus import build_corpus
        from mazenav.generate import GenConfig
        from mazenav.solver import solution_text

        corpus = build_corpus(tmp_path / "corpus", GenConfig(seed=61), 3, 6)
        script = {}
        for maze_id, maze in corpus.tests:
            for scenario in ("zero-shot", "one-shot", "few-shot"):
                script[f"{maze_id}|{scenario}"] = solution_text(maze)
        (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
        (tmp_path / "exp.json").write_text(json.dumps({
            "corpus": "corpus",
            "output": "out",
            "providers": [{
                "name": "mock-a",
                "model": "mock-a-v1",
                "endpoint": f"mock:{tmp_path / 'script.json'}",
            }],
        }), encoding="utf-8")

    def test_eval_and_report(self, tmp_path, capsys):
        self.build_experiment(tmp_path)
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 0
        out = capsys.readouterr().out
        assert "Complete Path Accuracy" in out
        assert (tmp_path / "out" / "records.jsonl").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

        assert run_cli("--workdir", tmp_path, "report", "--log", "out/records.jsonl",
                       "--csv", "resummary.csv") == 0
        assert "100.0" in capsys.readouterr().out
        assert (tmp_path / "resummary.csv").exists()


    def set_endpoint(self, tmp_path, endpoint):
        spec = json.loads((tmp_path / "exp.json").read_text(encoding="utf-8"))
        spec["providers"][0]["endpoint"] = endpoint
        (tmp_path / "exp.json").write_text(json.dumps(spec), encoding="utf-8")

    def test_relative_mock_script_resolves_against_the_spec(self, tmp_path, capsys,
                                                           monkeypatch):
        self.build_experiment(tmp_path)
        self.set_endpoint(tmp_path, "mock:script.json")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 0
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert "ProviderError" not in report and "none=9" in report

    def test_missing_mock_script_stops_eval(self, tmp_path, capsys):
        self.build_experiment(tmp_path)
        self.set_endpoint(tmp_path, f"mock:{tmp_path / 'missing.json'}")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 1
        assert f"cannot load mock script {tmp_path / 'missing.json'}" in capsys.readouterr().err
        assert (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8") == ""
        # No zeros were kept, so once the script is there a rerun scores it.
        (tmp_path / "script.json").rename(tmp_path / "missing.json")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 0
        assert "none=9" in (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_bad_concurrency_override(self, tmp_path, capsys, concurrency):
        self.build_experiment(tmp_path)
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json",
                       "--concurrency", concurrency) == 1
        assert "concurrency must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("section, entry, field", [
        ("providers", {"temperature": "0.2"}, "temperature"),
        ("scenarios", {"name": "one-shot", "k": 1.5}, "k"),
        ("providers", {"endpoint": "htp://127.0.0.1:9/v1"}, "endpoint"),
    ])
    def test_field_type_refused(self, tmp_path, capsys, section, entry, field):
        self.build_experiment(tmp_path)
        spec = json.loads((tmp_path / "exp.json").read_text(encoding="utf-8"))
        if section == "providers":
            spec["providers"][0].update(entry)
        else:
            spec["scenarios"] = [entry]
        (tmp_path / "exp.json").write_text(json.dumps(spec), encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_malformed_manifest_is_an_error_line(self, tmp_path, capsys):
        self.build_experiment(tmp_path)
        path = tmp_path / "corpus" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["mazes"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest.json" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_test_id_is_refused_before_the_output_directory(self, tmp_path, capsys):
        self.build_experiment(tmp_path)
        path = tmp_path / "corpus" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["mazes"][1]["id"] = manifest["mazes"][0]["id"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeats the id 'test-000'" in err
        assert not (tmp_path / "out").exists()

    def test_record_without_both_scores_is_an_error_line(self, tmp_path, capsys):
        self.build_experiment(tmp_path)
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 0
        log_path = tmp_path / "out" / "records.jsonl"
        first, *rest = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(first)
        del record["scores"]["execution"]
        log_path.write_text("".join([json.dumps(record) + "\n", *rest]), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "report", "--log", "out/records.jsonl") == 1
        assert "error: corrupt record log" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(scoring_mode="exact"),
        lambda r: r["scores"].update(execution={}),
    ], ids=["unknown-mode", "empty-execution-score"])
    def test_record_the_report_cannot_read_is_an_error_line(self, tmp_path, capsys, edit):
        self.build_experiment(tmp_path)
        assert run_cli("--workdir", tmp_path, "eval", "--spec", "exp.json") == 0
        log_path = tmp_path / "out" / "records.jsonl"
        records = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
        for record in records:
            edit(record)
        log_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "report", "--log", "out/records.jsonl") == 1
        assert "error: corrupt record log" in capsys.readouterr().err


class TestMockEval:
    @pytest.mark.parametrize("options, message", [
        (("--concurrency", 0), "concurrency must be >= 1"),
        (("--n-test", 0), "corpus has no test mazes"),
        (("--n-test", 2, "--n-shot", 3), "few-shot needs 6 shot mazes"),
    ])
    def test_refused_before_writing(self, tmp_path, capsys, options, message):
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run", *options) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_small_end_to_end(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                       "--n-test", 4, "--n-shot", 6, "--seed", 11) == 0
        out = capsys.readouterr().out
        assert "mock-oracle" in out and "mock-partial" in out
        records = (tmp_path / "run" / "records.jsonl").read_text().splitlines()
        assert len(records) == 4 * 3 * 2

    def test_report_rendered_once(self, tmp_path, capsys, monkeypatch):
        from mazenav import report

        rendered = []
        real = report._report
        monkeypatch.setattr(report, "_report", lambda tally: rendered.append(1) or real(tally))
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                       "--n-test", 2, "--n-shot", 6, "--seed", 11) == 0
        assert len(rendered) == 1
        out = capsys.readouterr().out
        assert out == (tmp_path / "run" / "report.txt").read_text() + (
            f"records: {tmp_path / 'run' / 'records.jsonl'}\n"
        )

    def test_mode_flag_sets_report_mode(self, tmp_path, capsys):
        args = ("--workdir", tmp_path, "mock-eval", "--out", "run", "--n-test", 4, "--seed", 7)
        log = tmp_path / "run" / "records.jsonl"
        assert run_cli(*args) == 0
        oracle_log = log.read_text(encoding="utf-8")
        capsys.readouterr()
        # A finished oracle-mode log, reported in execution mode.
        assert run_cli(*args, "--mode", "execution") == 0
        assert "Scoring mode: execution" in capsys.readouterr().out
        assert "Scoring mode: execution" in (tmp_path / "run" / "report.txt").read_text()
        # A resumed log whose records were written in both modes.
        log.write_text("".join(oracle_log.splitlines(keepends=True)[:10]), encoding="utf-8")
        assert run_cli(*args, "--mode", "execution") == 0
        assert "Scoring mode: execution" in capsys.readouterr().out
        assert "Scoring mode: execution" in (tmp_path / "run" / "report.txt").read_text()
        assert len(log.read_text(encoding="utf-8").splitlines()) == 4 * 3 * 2

    def test_report_leaves_torn_log_unchanged(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                       "--n-test", 2, "--n-shot", 6, "--seed", 11) == 0
        log = tmp_path / "run" / "records.jsonl"
        with open(log, "a", encoding="utf-8") as f:
            f.write('{"torn')
        torn = log.read_bytes()
        assert run_cli("--workdir", tmp_path, "report", "--log", "run/records.jsonl") == 0
        assert log.read_bytes() == torn
        assert "Records: 12" in capsys.readouterr().out

    MOCK_ARGS = ("mock-eval", "--out", "run", "--n-test", 4, "--n-shot", 6, "--seed", 11)

    @staticmethod
    def count_reads(monkeypatch) -> Counter:
        """Count maze-file parses, record-line decodes and score decodes."""
        from mazenav import corpus, runner, scoring

        calls = Counter()
        for owner, name in ((corpus, "parse"), (runner.RunRecord, "from_json_line"),
                            (scoring.RunScore, "from_dict")):
            real = getattr(owner, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_cold_run_reads_nothing_back(self, tmp_path, capsys, monkeypatch):
        # 10 maze files, 24 records: run() parses each file once, and the
        # report decodes each score of the records run() returned once.
        calls = self.count_reads(monkeypatch)
        assert run_cli("--workdir", tmp_path, *self.MOCK_ARGS) == 0
        assert calls == {"parse": 10, "from_dict": 24}

    def test_rerun_decodes_each_record_once(self, tmp_path, capsys, monkeypatch):
        assert run_cli("--workdir", tmp_path, *self.MOCK_ARGS) == 0
        calls = self.count_reads(monkeypatch)
        assert run_cli("--workdir", tmp_path, *self.MOCK_ARGS) == 0
        assert calls["from_json_line"] == 24 and calls["from_dict"] == 24

    def test_report_csv_decodes_each_record_once(self, tmp_path, capsys, monkeypatch):
        # report --csv renders both files from one tally, as mock-eval does.
        assert run_cli("--workdir", tmp_path, *self.MOCK_ARGS) == 0
        capsys.readouterr()
        calls = self.count_reads(monkeypatch)
        assert run_cli("--workdir", tmp_path, "report", "--log", "run/records.jsonl",
                       "--csv", "re.csv") == 0
        assert calls["from_json_line"] == 24 and calls["from_dict"] == 24
        assert capsys.readouterr().out == (tmp_path / "run" / "report.txt").read_text()
        assert (tmp_path / "re.csv").read_bytes() == (tmp_path / "run" / "summary.csv").read_bytes()

    def test_manifest_not_json_is_an_error_line(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c", "--n-test", 2) == 0
        (tmp_path / "c" / "manifest.json").write_text("not json", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "mock-eval", "--corpus", "c", "--out", "run") == 1
        assert f"error: cannot read {tmp_path / 'c' / 'manifest.json'}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_maze_file_is_an_error_line(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c", "--n-test", 2) == 0
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        (tmp_path / "c" / "test-001.maze").write_text("not a maze\n", encoding="utf-8")
        manifest["mazes"][1]["sha256"] = hashlib.sha256(b"not a maze\n").hexdigest()
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "mock-eval", "--corpus", "c", "--out", "run") == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'c' / 'test-001.maze'}: line 1: "
                                           "expected description header and size line: "
                                           "'not a maze'\n")
        assert not (tmp_path / "run").exists()

    def test_seeded_run_bytes_pinned(self, tmp_path, capsys):
        # The digests the CI workflow checks; a change to any of these bytes
        # changes records, prompts or reports.
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run", "--seed", 4242) == 0
        digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                   for name in ("records.jsonl", "report.txt", "summary.csv")}
        assert digests == {
            "records.jsonl": "56494a75e98086084d4571f51cf29206669c5b400d1e7ffb67dbbdce6854ce7c",
            "report.txt": "53fd801aad64b244f3e9332cd8786ffc7d873d870ba232f9b5dc281dbb94e224",
            "summary.csv": "f22720551b4730153a120122c785d08370c5d8ea6664e32a47db3551ccc6571f",
        }

    def test_reused_corpus_without_seed(self, tmp_path, capsys):
        # A manifest config without a seed is compared only when --seed is given.
        assert run_cli("--workdir", tmp_path, "gen", "--out", "c", "--n-test", 2) == 0
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["config"]["seed"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "mock-eval", "--corpus", "c", "--out", "r",
                       "--seed", 42) == 1
        assert "seed None (flag: 42)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        assert run_cli("--workdir", tmp_path, "mock-eval", "--corpus", "c", "--out", "r") == 0
        assert "Records: 12" in capsys.readouterr().out

    def test_reused_corpus_must_match_flags(self, tmp_path, capsys):
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                       "--n-test", 2, "--seed", 11) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                       "--n-test", 4, "--seed", 12) == 1
        err = capsys.readouterr().err
        assert "seed 11 (flag: 12)" in err and "n_test 2 (flag: 4)" in err
        assert "n_shot" not in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        # The same flags, or none of them, reuse the corpus.
        for flags in (("--n-test", 2, "--seed", 11, "--n-shot", 6), ()):
            assert run_cli("--workdir", tmp_path, "mock-eval", "--out", "run", *flags) == 0
            assert "Records: 12" in capsys.readouterr().out

    def test_idempotent(self, tmp_path):
        run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                "--n-test", 3, "--n-shot", 6, "--seed", 11)
        log = (tmp_path / "run" / "records.jsonl").read_bytes()
        run_cli("--workdir", tmp_path, "mock-eval", "--out", "run",
                "--n-test", 3, "--n-shot", 6, "--seed", 11)
        assert (tmp_path / "run" / "records.jsonl").read_bytes() == log


class TestStartup:
    # Each command is its own process, so every one pays for what the package
    # imports: a module only some commands use loads where they use it, the
    # HTTP modules at the first request, and the package does not use typing.
    DEFERRED = ("concurrent.futures", "logging", "csv", "hashlib", "_hashlib", "typing",
                "urllib.request", "http.client", "ssl", "email")

    # Importing report first also shows that it imports nothing from runner,
    # which imports it.
    @pytest.mark.parametrize("module", ["mazenav.cli", "mazenav.report"])
    def test_import_loads_no_deferred_module(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
                 "before = set(sys.modules); importlib.import_module(sys.argv[2]); "
                 "print(*sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-I", "-c", probe, src, module], check=True,
                             capture_output=True, text=True).stdout
        added = out.split()
        assert module in added
        assert [m for m in added
                if any(m == d or m.startswith(d + ".") for d in self.DEFERRED)] == []

    def test_package_import_loads_no_submodule(self):
        # Each name is imported from the module that defines it, so the package
        # namespace needs none of them.
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mazenav; "
                 "print(*sorted(m for m in sys.modules if m.startswith('mazenav.')))")
        out = subprocess.run([sys.executable, "-I", "-c", probe, src], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == []


class TestImportPaths:
    REPO = Path(__file__).resolve().parents[1]

    def test_generate_is_the_module(self):
        import mazenav.generate as g

        assert g is sys.modules["mazenav.generate"]
        assert g.WORK_BUDGET == 100_000_000

    def test_documented_names_resolve(self):
        # Every `mazenav.<module>.<name>` the docs give is an attribute path.
        import mazenav

        docs = [self.REPO / "README.md", *sorted((self.REPO / "docs").glob("*.md"))]
        names = {match for path in docs
                 for match in re.findall(r"`mazenav\.(\w+)\.([\w.]+)`",
                                         path.read_text(encoding="utf-8"))}
        assert ("generate", "WORK_BUDGET") in names
        unresolved = []
        for module, name in sorted(names):
            importlib.import_module(f"mazenav.{module}")
            target = getattr(mazenav, module)
            for part in name.split("."):
                target = getattr(target, part, None)
            if target is None:
                unresolved.append(f"mazenav.{module}.{name}")
        assert unresolved == []
