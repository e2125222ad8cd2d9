"""Runs that several test modules read, made once per session.

``picard_run`` runs every scenario of the benchmark's ``picard`` workload
through ``verify.run_scenario`` at the benchmark reference's seed, so tests
that read a Picard solve or its verdicts do not solve again.  While a
scenario runs, every ``_GriddedIntegrator.solve`` call records the orders
it asks for.
"""

import importlib.util
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from bspdelab.scenarios import get_scenario
from bspdelab.solver import _GriddedIntegrator
from bspdelab.verify import VerdictBundle, run_scenario

ROOT = Path(__file__).resolve().parents[1]


class ScenarioRun(NamedTuple):
    bundle: VerdictBundle
    artifacts: dict  # as run_scenario returns them; a solution's profiles are read-only
    applies: list  # the orders of each _GriddedIntegrator.solve call, in call order

    def verdict(self, check_id):
        (found,) = [v for v in self.bundle.verdicts if v.check_id == check_id]
        return found


@pytest.fixture(scope="session")
def benchmark_harness():
    """``benchmark/run.py`` as a module, for its reference comparison."""
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def picard_reference():
    return json.loads((ROOT / "benchmark" / "reference" / "picard.json").read_text())


def _recording(solve, applies):
    def spy(self, F, orders):
        applies.append(tuple(orders))
        return solve(self, F, orders)
    return spy


@pytest.fixture(scope="session")
def picard_run(picard_reference):
    """{scenario id: ScenarioRun} over the reference's scenarios."""
    runs = {}
    for sid in picard_reference["scenarios"]:
        applies = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_GriddedIntegrator, "solve", _recording(_GriddedIntegrator.solve, applies))
            bundle, artifacts = run_scenario(get_scenario(sid), seed=picard_reference["seed"])
        if "solution" in artifacts:
            for part in artifacts["solution"].u_parts:
                for profile in part.profiles.values():
                    profile.flags.writeable = False
        runs[sid] = ScenarioRun(bundle, artifacts, applies)
    return runs
