"""Runs that several test modules read, made once per session.

``picard_run``, ``ensemble_run`` and ``certify_run`` run every scenario of
the benchmark workload of that name through ``verify.run_scenario`` at the
benchmark reference's seed, so tests that read a solve or its verdicts do
not solve again.  While a scenario runs, every ``_GriddedIntegrator.solve``
call records the orders it asks for.
"""

import importlib.util
import json
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from bspdelab.scenarios import get_scenario
from bspdelab.solver import _GriddedIntegrator
from bspdelab.verify import run_scenario

ROOT = Path(__file__).resolve().parents[1]


class ScenarioRun(NamedTuple):
    verdicts: list  # of Verdict, as run_scenario returns them
    artifacts: dict  # as run_scenario returns them; a solution's profiles are read-only
    applies: list  # the orders of each _GriddedIntegrator.solve call, in call order
    seconds: float  # wall time of the run_scenario call

    def verdict(self, check_id):
        (found,) = [v for v in self.verdicts if v.check_id == check_id]
        return found


@pytest.fixture(scope="session")
def benchmark_harness():
    """``benchmark/run.py`` as a module, for its reference comparison."""
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workload_references():
    """{workload: its benchmark reference}."""
    return {w: json.loads((ROOT / "benchmark" / "reference" / f"{w}.json").read_text())
            for w in ("picard", "ensemble", "certify")}


def _recording(solve, applies):
    def spy(self, F, orders):
        applies.append(tuple(orders))
        return solve(self, F, orders)
    return spy


def workload_run(reference):
    """{scenario id: ScenarioRun} over the reference's scenarios."""
    runs = {}
    for sid in reference["scenarios"]:
        applies = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_GriddedIntegrator, "solve", _recording(_GriddedIntegrator.solve, applies))
            start = time.perf_counter()
            verdicts, artifacts = run_scenario(get_scenario(sid), seed=reference["seed"])
            seconds = time.perf_counter() - start
        if "solution" in artifacts:
            sol = artifacts["solution"]
            for part in [*sol.u_parts, *(p for parts in sol.v_parts for p in parts)]:
                for profile in part.profiles.values():
                    profile.flags.writeable = False
        runs[sid] = ScenarioRun(verdicts, artifacts, applies, seconds)
    return runs


@pytest.fixture(scope="session")
def picard_run(workload_references):
    return workload_run(workload_references["picard"])


@pytest.fixture(scope="session")
def ensemble_run(workload_references):
    return workload_run(workload_references["ensemble"])


@pytest.fixture(scope="session")
def certify_run(workload_references):
    return workload_run(workload_references["certify"])
