"""Command-line entry point for the whole pipeline.

Subcommands: gen, render, solve, serialize, verify, eval, report, mock-eval.
All are non-interactive and deterministic for identical inputs; paths are
resolved relative to --workdir.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .corpus import MANIFEST_NAME, CorpusError, build_corpus, load_corpus
from .gateway import DEFAULT_SCENARIOS, GatewayError, ProviderConfig, mock_key
from .generate import GenConfig, GenerationError, generate
from .report import render_reports
from .runner import (
    RECORDS_NAME,
    ExperimentSpec,
    check_corpus_size,
    judge,
    load_records,
    load_spec,
    run_records,
)
from .scoring import MODES, MODE_ORACLE
from .solver import reference_solution, solution_text
from .textform import load_description, read_utf8, render_ascii, serialize

# MazeError, MalformedDescription, CorpusError, UnsolvableMazeError and
# SpecError all subclass ValueError.
_ERRORS = (ValueError, GenerationError, GatewayError, OSError)

# The corpus gen writes, and mock-eval builds, when no flag says otherwise.
_CORPUS_DEFAULTS = {"n_test": 34, "n_shot": 6, "seed": 42}


def _gen_config(args) -> GenConfig:
    return GenConfig(
        rows=args.rows,
        cols=args.cols,
        wall_count=args.wall_count,
        min_path=args.min_path,
        max_path=args.max_path,
        require_unique_optimal=not args.allow_tied_optima,
        opposite_sides=not args.any_sides,
        seed=args.seed,
    )


def _add_gen_options(p: argparse.ArgumentParser) -> None:
    for name in ("rows", "cols", "wall_count", "min_path", "max_path"):
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(GenConfig, name))
    p.add_argument("--seed", type=int, default=_CORPUS_DEFAULTS["seed"])
    p.add_argument("--allow-tied-optima", action="store_true",
                   help="do not require a unique minimal solution")
    p.add_argument("--any-sides", action="store_true",
                   help="allow entrance/exit on any boundary side")


def cmd_gen(args) -> int:
    cfg = _gen_config(args)
    if args.n_test < 1:
        raise CorpusError(f"corpus has no test mazes (--n-test {args.n_test}); "
                          "eval and mock-eval need at least 1")
    corpus = build_corpus(args.workdir / args.out, cfg, args.n_test, args.n_shot)
    print(f"wrote {len(corpus.tests)} test + {len(corpus.shots)} shot mazes "
          f"to {args.workdir / args.out}")
    return 0


def cmd_render(args) -> int:
    maze = load_description(args.workdir / args.maze)
    path = list(reference_solution(maze).cells) if args.solution else None
    print(render_ascii(maze, path), end="")
    return 0


def cmd_solve(args) -> int:
    maze = load_description(args.workdir / args.maze)
    print(solution_text(maze))
    return 0


def cmd_serialize(args) -> int:
    if args.maze:
        maze = load_description(args.workdir / args.maze)
    else:
        maze = generate(_gen_config(args))
    print(serialize(maze).text, end="")
    return 0


def cmd_verify(args) -> int:
    maze = load_description(args.workdir / args.maze)
    answer = read_utf8(args.workdir / args.answer)
    parsed, trace, scores = judge(maze, answer, reference_solution(maze), args.lenient_exit)
    score = scores[args.mode]
    print(f"complete={str(score.complete).lower()} partial={score.partial:.3f}")
    if score.first_fault:
        print(f"first fault: step {score.first_fault[0]} ({score.first_fault[1]})")
    for i, pose in enumerate(trace.poses):
        print(f"  step {i}: cell {pose.cell} facing {pose.heading.value}")
    if trace.fault:
        print(f"  fault at step {trace.failed_at}: {trace.fault.kind.value}"
              f" ({trace.fault.detail})")
    for rej in parsed.rejected_lines:
        print(f"  rejected line {rej.line_no}: {rej.reason}: {rej.text}")
    return 0


def cmd_eval(args) -> int:
    spec = load_spec(args.workdir / args.spec)
    overrides = {
        "concurrency": args.concurrency,
        "scoring_mode": args.mode,
        "output_dir": None if args.out is None else args.workdir / args.out,
    }
    # replace() builds a new spec, so __post_init__ checks the overrides too.
    spec = dataclasses.replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    return _run_and_report(spec)


def _run_and_report(spec: ExperimentSpec, clock=time.time) -> int:
    """Run the missing trials, then write and print the report of the whole log."""
    report, csv = render_reports(run_records(spec, clock=clock), spec.scoring_mode)
    (spec.output_dir / "report.txt").write_text(report, encoding="utf-8")
    (spec.output_dir / "summary.csv").write_text(csv, encoding="utf-8")
    print(report, end="")
    print(f"records: {spec.output_dir / RECORDS_NAME}")
    return 0


def cmd_report(args) -> int:
    report, csv = render_reports(load_records(args.workdir / args.log), args.mode)
    print(report, end="")
    if args.csv:
        (args.workdir / args.csv).write_text(csv, encoding="utf-8")
    return 0


def _mock_script(corpus, flaw_every: int | None) -> dict:
    """Scripted responses: the reference solution text for every test maze,
    except every ``flaw_every``-th maze which answers with a truncated
    opening (deterministic partial credit)."""
    script = {}
    for i, (maze_id, maze) in enumerate(corpus.tests):
        text = solution_text(maze)
        if flaw_every and i % flaw_every == 1:
            text = "\n".join(text.splitlines()[:2])
        for scenario in DEFAULT_SCENARIOS:
            script[mock_key(maze_id, scenario.name)] = text
    return script


def cmd_mock_eval(args) -> int:
    out = args.workdir / args.out
    corpus_dir = args.workdir / args.corpus if args.corpus else out / "corpus"
    flaws = {"mock-oracle": None, "mock-partial": 2}
    scripts = {name: out / f"script-{name}.json" for name in flaws}
    # The spec and the corpus size are checked before anything is written.
    spec = ExperimentSpec(
        corpus_dir=corpus_dir,
        output_dir=out,
        providers=[ProviderConfig(name=name, model=f"{name}-v1", endpoint=f"mock:{path}")
                   for name, path in scripts.items()],
        scoring_mode=args.mode,
        concurrency=args.concurrency,
        experiment_id="mock-eval",
    )
    # --corpus names a corpus to reuse: with no manifest, load_corpus refuses it.
    reused = args.corpus is not None or (corpus_dir / MANIFEST_NAME).exists()
    if reused:
        corpus = load_corpus(corpus_dir)
        # A reused corpus must match every flag given; flags left out are not compared.
        flags = {"seed": (args.seed, corpus.config.get("seed")),
                 "n_test": (args.n_test, len(corpus.tests)),
                 "n_shot": (args.n_shot, len(corpus.shots))}
        differ = [f"{name} {built} (flag: {flag})" for name, (flag, built) in flags.items()
                  if flag not in (None, built)]
        if differ:
            raise CorpusError(f"corpus {corpus_dir} was built with {', '.join(differ)}; "
                              "use another --out or --corpus, or leave those flags out")
        n_test, n_shot = len(corpus.tests), len(corpus.shots)
    else:
        n_test, n_shot, seed = (_CORPUS_DEFAULTS[name] if getattr(args, name) is None
                                else getattr(args, name) for name in _CORPUS_DEFAULTS)
    check_corpus_size(spec, n_test, n_shot)
    if not reused:
        corpus = build_corpus(corpus_dir, GenConfig(seed=seed), n_test, n_shot)

    out.mkdir(parents=True, exist_ok=True)
    for name, path in scripts.items():
        path.write_text(json.dumps(_mock_script(corpus, flaws[name]), indent=0, sort_keys=True),
                        encoding="utf-8")
    return _run_and_report(spec, clock=lambda: 0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mazenav", description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("."),
                        help="base directory for all relative paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and write a maze corpus")
    _add_gen_options(p)
    p.add_argument("--out", type=Path, default=Path("corpus"))
    p.add_argument("--n-test", type=int, default=_CORPUS_DEFAULTS["n_test"])
    p.add_argument("--n-shot", type=int, default=_CORPUS_DEFAULTS["n_shot"])
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("render", help="print an ASCII drawing of a maze file")
    p.add_argument("--maze", type=Path, required=True)
    p.add_argument("--solution", action="store_true", help="overlay the reference path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("solve", help="print the reference solution for a maze file")
    p.add_argument("--maze", type=Path, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("serialize", help="print the canonical text description")
    _add_gen_options(p)
    p.add_argument("--maze", type=Path, help="re-serialize an existing maze file")
    p.set_defaults(func=cmd_serialize)

    p = sub.add_parser("verify", help="score a response file against a maze")
    p.add_argument("--maze", type=Path, required=True)
    p.add_argument("--answer", type=Path, required=True)
    p.add_argument("--mode", choices=MODES, default=MODE_ORACLE)
    p.add_argument("--lenient-exit", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="run an experiment from a spec file")
    p.add_argument("--spec", type=Path, required=True)
    p.add_argument("--concurrency", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render tables from a record log")
    p.add_argument("--log", type=Path, required=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--csv", type=Path, help="also write a CSV summary")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("mock-eval", help="end-to-end run against scripted providers")
    p.add_argument("--out", type=Path, default=Path("mock-run"))
    p.add_argument("--corpus", type=Path, help="reuse an existing corpus directory")
    for name, default in _CORPUS_DEFAULTS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=int,
                       help=f"default {default}; a reused corpus must match")
    p.add_argument("--mode", choices=MODES, default=MODE_ORACLE)
    p.add_argument("--concurrency", type=int, default=4)
    p.set_defaults(func=cmd_mock_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
