"""Golden report: a small mixed record log pinned byte for byte.

Two scripted providers run through ``mazenav eval`` into one output
directory. ``mock-a`` answers every scenario; ``mock-b`` has no one-shot
runs, so its one-shot cells read ``-``. The answers cover a correct run,
a truncation, mirrored turns, a wrong exit heading, a junk line inside the
instruction block and a missing scripted reply (a provider error).

To regenerate the fixtures after a deliberate report change, run
``PYTHONPATH=src python tests/test_report_golden.py`` from the repo root.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mazenav.cli import main
from mazenav.corpus import build_corpus
from mazenav.generate import GenConfig
from mazenav.runner import RECORDS_NAME, load_records, report_text, summary_csv
from mazenav.scoring import MODE_EXECUTION, MODE_ORACLE
from mazenav.solver import solution_text

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = {"zero-shot": 0, "one-shot": 1, "few-shot": 5}

GOLDEN = {
    "golden_report_oracle.txt": (report_text, MODE_ORACLE),
    "golden_report_execution.txt": (report_text, MODE_EXECUTION),
    "golden_summary_oracle.csv": (summary_csv, MODE_ORACLE),
    "golden_summary_execution.csv": (summary_csv, MODE_EXECUTION),
}

# (provider, scenario) -> answer kind per test maze; None means no scripted reply.
A_KINDS = ["correct", "truncated", "mirrored", "exit-heading", "junk", None]
ANSWERS = {
    **{("mock-a", scenario): A_KINDS for scenario in SCENARIOS},
    ("mock-b", "zero-shot"): ["correct", "correct", "mirrored", "correct", None, "correct"],
    ("mock-b", "few-shot"): ["correct", "exit-heading", "correct", "junk", "correct", "truncated"],
}


def _mirror(line: str) -> str:
    if not line.startswith("Turn "):
        return line
    return "Turn right" if line == "Turn left" else "Turn left"


def answer(kind: str, reference: str) -> str:
    lines = reference.splitlines()
    if kind == "truncated":
        lines = lines[:2]
    elif kind == "mirrored":
        lines = [_mirror(line) for line in lines]
    elif kind == "exit-heading":
        last_turn = max(i for i, line in enumerate(lines) if line.startswith("Turn "))
        lines[last_turn] = _mirror(lines[last_turn])
    elif kind == "junk":
        lines.insert(2, "Let me double-check that.")
    return "\n".join(lines)


def build_log(base: Path) -> str:
    """Run both providers' evals into ``base / 'out'``; return the second
    eval's stdout, which reports every record in the log."""
    corpus = build_corpus(base / "corpus", GenConfig(seed=31), 6, 6)
    references = [solution_text(maze) for _, maze in corpus.tests]
    stdout = ""
    for provider in ("mock-a", "mock-b"):
        scenarios = [s for s in SCENARIOS if (provider, s) in ANSWERS]
        script = {
            f"{maze_id}|{scenario}": answer(kind, reference)
            for scenario in scenarios
            for (maze_id, _), reference, kind in zip(
                corpus.tests, references, ANSWERS[(provider, scenario)]
            )
            if kind is not None
        }
        script_path = base / f"script-{provider}.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        (base / f"{provider}.json").write_text(json.dumps({
            "corpus": "corpus",
            "output": "out",
            "scenarios": [{"name": s, "k": SCENARIOS[s]} for s in scenarios],
            "providers": [{
                "name": provider,
                "model": f"{provider}-v1",
                "endpoint": f"mock:{script_path}",
            }],
        }), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["--workdir", str(base), "eval", "--spec", f"{provider}.json"]) == 0
        stdout = buf.getvalue()
    return stdout


@pytest.fixture(scope="module")
def mixed_log(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden-report")
    stdout = build_log(base)
    return base / "out", stdout


def test_log_covers_the_mixed_answers(mixed_log):
    out, _ = mixed_log
    records = load_records(out / RECORDS_NAME)
    assert len(records) == 6 * 3 + 6 * 2
    faults = {r.scores[MODE_EXECUTION]["first_fault"][1]
              for r in records if r.scores[MODE_EXECUTION]["first_fault"]}
    assert {"ProviderError", "UnparseableStep", "WrongExitHeading"} <= faults
    missing = f"  {'-':>10}"
    assert any(line.startswith("mock-b") and missing in line
               for line in report_text(records).splitlines())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(mixed_log, name):
    out, _ = mixed_log
    render, mode = GOLDEN[name]
    rendered = render(load_records(out / RECORDS_NAME), mode)
    assert rendered == (FIXTURES / name).read_text(encoding="utf-8")


def test_eval_stdout_is_the_written_report(mixed_log):
    out, stdout = mixed_log
    body, records_line = stdout.rsplit("records: ", 1)
    assert records_line == f"{out / RECORDS_NAME}\n"
    assert body == (out / "report.txt").read_text(encoding="utf-8")
    assert body == (FIXTURES / "golden_report_oracle.txt").read_text(encoding="utf-8")
    assert (out / "summary.csv").read_text(encoding="utf-8") == (
        FIXTURES / "golden_summary_oracle.csv"
    ).read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build_log(Path(tmp))
        records = load_records(Path(tmp) / "out" / RECORDS_NAME)
        for name, (render, mode) in GOLDEN.items():
            (FIXTURES / name).write_text(render(records, mode), encoding="utf-8")
            print(f"wrote {FIXTURES / name}", file=sys.stderr)
