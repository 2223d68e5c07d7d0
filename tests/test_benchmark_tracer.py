"""The benchmark's tracer patches program attributes by name; a renamed or
dropped name must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    """Every attribute of every loaded mazenav module and of RunRecord."""
    runner = importlib.import_module("mazenav.runner")
    owners = [m for name, m in sys.modules.items() if name.startswith("mazenav.")]
    return {(owner, attr): value
            for owner in owners + [runner.RunRecord]
            for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_attribute():
    tracer = _load_tracer().Tracer()
    before = _attributes()
    tracer.install()
    try:
        during = _attributes()
    finally:
        tracer.uninstall()
    patched = {key for key, value in during.items() if before.get(key) is not value}
    solver = importlib.import_module("mazenav.solver")
    generate = importlib.import_module("mazenav.generate")
    for owner, attr in [(solver, "optimal_solutions"), (solver, "reference_solution"),
                        (solver, "shortest_cell_paths"), (generate, "optimal_solutions"),
                        (generate, "bfs_distances")]:
        assert (owner, attr) in patched
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
