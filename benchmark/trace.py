"""Traced in-process `bspdelab run` of one workload config.

    python3 benchmark/trace.py <config> --seed N --out DIR --spans FILE --run-id ID

Wraps the public calls that `verify.run_scenario` and `cli._run_one` make in
spans (name, start, end, parent, run id) kept in memory, runs the config
through `cli.main` in this process, and writes the spans and the per-layer
metrics to --spans when the run ends.  `src/bspdelab` must be importable.

Two probes run with the span clock paused, so they add to no span; their
time is reported as `paused_s` so the caller can subtract it:
- kernel: a fresh `HeatKernel.covariance_pairs` (lazy table included) over
  each pair set a Picard solve asked its kernel for;
- holder: `estimate_norm(m=2, alpha=0.5)` of the "L2" family on the trusted
  region of each solution's first path, the norm the Picard convergence test
  takes every iteration.
The oracle's allocation peak comes from a third, paused pass: each oracle
call is first repeated under tracemalloc, which would distort its time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import time
import traceback
import tracemalloc
from pathlib import Path

from run import FULL_CONFIG, scenario_ids

PICARD = {"frozen-picard": "variable_linear", "semilinear-picard": "semilinear"}
ROUTES = {"representation": "model", **PICARD}
NORM_ALPHA = 0.5
VERIFY_CALLS = {
    "run_residual_check": "residual",
    "run_oracle_check": "oracle_check",
    "run_time_shift_study": "time_shift",
    "run_apriori_study": "apriori",
    "run_kernel_suite": "kernel_suite",
    "run_convergence_study": "convergence",
}


class Tracer:
    """Spans on a clock that stops while a probe runs."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []
        self.paused_s = 0.0
        self.probe_s = {"kernel.covariance_s": 0.0, "holder.norm_s": 0.0}

    def now(self) -> float:
        return time.perf_counter() - self.origin - self.paused_s

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sp = {"id": len(self.spans), "name": name, "run": self.run_id,
              "parent": self.stack[-1]["id"] if self.stack else None,
              "start": self.now(), **attrs}
        self.spans.append(sp)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            self.stack.pop()
            sp["end"] = self.now()

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def inside(self, name: str) -> bool:
        return any(sp["name"] == name for sp in self.stack)


def patch(modules, owner, attr, make):
    """Replace owner.attr, and every module binding of the same object."""
    orig = getattr(owner, attr)
    new = functools.wraps(orig)(make(orig))
    for mod in modules:
        for name, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, name, new)
    setattr(owner, attr, new)
    return orig


def install(tracer: Tracer):
    from bspdelab import cli, holder, kernel, scenarios, solver, stochastic, verify
    from bspdelab.grid import SpaceGrid

    modules = (cli, holder, kernel, scenarios, solver, stochastic, verify)
    pair_sets = []  # (kernel, t_arr, s_arr) asked for inside the current solve

    def spanned(name, attrs=lambda *a, **k: {}, after=None):
        def make(fn):
            def wrapper(*a, **k):
                with tracer.span(name, **attrs(*a, **k)) as sp:
                    result = fn(*a, **k)
                if after is not None:
                    after(sp, result)
                return result
            return wrapper
        return make

    def sid_of_first(spec, *a, **k):
        return {"sid": spec.scenario_id}

    patch(modules, cli, "load_config", spanned("cli.load_config"))
    patch(modules, cli, "_run_one", spanned("cli.run_one", sid_of_first))
    patch(modules, verify, "run_scenario", spanned("verify.scenario", sid_of_first))
    for fn, key in VERIFY_CALLS.items():
        patch(modules, verify, fn, spanned(f"verify.{key}"))
    patch(modules, scenarios.ScenarioSpec, "solve",
          spanned("scenarios.solve", sid_of_first))
    for fn in ("localize", "covering_inequality"):
        patch(modules, solver, fn, spanned("solver.localize"))
    patch(modules, solver, "integral_form_defect", spanned("solver.defect"))
    patch(modules, stochastic, "sample_paths",
          spanned("stochastic.sample_paths",
                  after=lambda sp, paths: sp.update(paths=paths.num_paths)))
    patch(modules, stochastic, "solve_bsde_closed",
          spanned("stochastic.bsde_closed"))

    def make_cov(fn):
        def wrapper(self, t_arr, s_arr):
            if tracer.inside("solver.solve"):
                pair_sets.append((self, t_arr, s_arr))
            return fn(self, t_arr, s_arr)
        return wrapper

    covariance_pairs = patch(modules, kernel.HeatKernel, "covariance_pairs", make_cov)

    def probe(sol):
        mask = sol.trusted
        sub = SpaceGrid(dim=1, radius=float(sol.space_grid.axis[mask].max()),
                        points_per_axis=int(mask.sum()))
        rows = [sol.u_dense(o, [0])[..., mask] for o in range(3)]
        field = holder.FieldSample(rows[0], sub, "L2", sol.time_grid)
        field.attach_derivative(1, rows[1])
        field.attach_derivative(2, rows[2])
        t0 = time.perf_counter()
        holder.estimate_norm(field, 2, NORM_ALPHA)
        tracer.probe_s["holder.norm_s"] += time.perf_counter() - t0
        if sol.provenance not in PICARD:
            return
        fresh = {}
        for k, t_arr, s_arr in pair_sets:
            t0 = time.perf_counter()
            if id(k) not in fresh:
                fresh[id(k)] = k.with_beta(k.beta)
            covariance_pairs(fresh[id(k)], t_arr, s_arr)
            tracer.probe_s["kernel.covariance_s"] += time.perf_counter() - t0

    def make_solve(fn):
        def wrapper(*a, **k):
            outer = not tracer.inside("solver.solve")
            if outer:
                pair_sets.clear()
            with tracer.span("solver.solve", fn=fn.__name__, outer=outer) as sp:
                sol = fn(*a, **k)
            sp["provenance"] = sol.provenance
            sp["iterations"] = int(sol.info.get("iterations", 1))
            if outer:
                with tracer.paused():
                    probe(sol)
            return sol
        return wrapper

    for fn in ("solve_model", "solve_variable_linear", "solve_semilinear",
               "solve_deterministic_pde"):
        patch(modules, solver, fn, make_solve)

    def make_u_dense(fn):
        def wrapper(self, order=0, path_idx=None):
            top = tracer.stack[-1] if tracer.stack else None
            if top is not None and top["name"] == "verify.oracle_check":
                used = self.num_paths if path_idx is None else len(path_idx)
                top["paths_used"] = top.get("paths_used", 0) + used
            return fn(self, order, path_idx)
        return wrapper

    patch(modules, solver.SolutionField, "u_dense", make_u_dense)

    def make_oracle(fn):
        def wrapper(spec, sol, paths):
            # tracemalloc slows the finite-difference oracle 2-3x, so the
            # allocation peak comes from a separate, paused call made first;
            # its result is freed before the timed call allocates again.
            with tracer.paused():
                tracemalloc.start()
                try:
                    fn(spec, sol, paths)
                    alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
            with tracer.span("scenarios.oracle", sid=spec.scenario_id,
                             alloc_mb=alloc_mb) as sp:
                u_exact, v_exact = fn(spec, sol, paths)
            sp["paths_built"] = u_exact.shape[0] if u_exact.ndim == 3 else 1
            return u_exact, v_exact
        return wrapper

    for spec in scenarios.CATALOG.values():
        if spec.oracle is not None:
            spec.oracle = functools.wraps(spec.oracle)(make_oracle(spec.oracle))


def layer_metrics(tracer: Tracer, all_ids, verdicts: int, export_bytes: int):
    """Per-layer metrics, named <module>.<metric>; zero where a layer is idle."""
    spans = tracer.spans
    dur = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    child = {}
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] = child.get(sp["parent"], 0.0) + dur[sp["id"]]

    def total(name, own=False, **match):
        return sum(dur[sp["id"]] - (child.get(sp["id"], 0.0) if own else 0.0)
                   for sp in spans if sp["name"] == name
                   and all(sp.get(k) == v for k, v in match.items()))

    solves = [sp for sp in spans if sp["name"] == "solver.solve" and sp["outer"]]
    picard = [sp for sp in solves if sp["provenance"] in PICARD]
    iterations = sum(sp["iterations"] for sp in picard)
    built_under = {sp["parent"]: sp["paths_built"] for sp in spans
                   if sp["name"] == "scenarios.oracle"}
    checks = [sp for sp in spans if sp["name"] == "verify.oracle_check"]
    used = sum(sp.get("paths_used", 0) for sp in checks)
    built = sum(built_under.get(sp["id"], 0) for sp in checks)
    oracle_alloc = [sp["alloc_mb"] for sp in spans if sp["name"] == "scenarios.oracle"]

    m = {
        "cli.load_config_s": (total("cli.load_config"), "s"),
        "cli.export_s": (total("cli.run_one", own=True), "s"),
        "cli.export_bytes": (export_bytes, "bytes"),
        "scenarios.solve_s": (total("scenarios.solve"), "s"),
        "scenarios.oracle_s": (total("scenarios.oracle"), "s"),
        "scenarios.oracle_alloc_mb": (max(oracle_alloc, default=0.0), "MB"),
        "scenarios.oracle_paths_used_ratio": (used / built if built else 0.0, "ratio"),
    }
    for provenance, route in ROUTES.items():
        m[f"solver.solve_s.{route}"] = (sum(
            dur[sp["id"]] for sp in solves if sp["provenance"] == provenance), "s")
    picard_s = sum(dur[sp["id"]] for sp in picard)
    m.update({
        "solver.picard_iterations": (iterations, "count"),
        "solver.picard_iteration_s": (picard_s / iterations if iterations else 0.0, "s"),
        "solver.localize_s": (total("solver.localize"), "s"),
        "solver.defect_s": (total("solver.defect"), "s"),
        "kernel.covariance_s": (tracer.probe_s["kernel.covariance_s"], "s"),
        "holder.norm_s": (tracer.probe_s["holder.norm_s"], "s"),
        "stochastic.sample_paths_s": (total("stochastic.sample_paths"), "s"),
        "stochastic.bsde_closed_s": (total("stochastic.bsde_closed"), "s"),
        "stochastic.paths": (sum(sp.get("paths", 0) for sp in spans
                                 if sp["name"] == "stochastic.sample_paths"), "count"),
    })
    for sid in all_ids:
        m[f"verify.scenario_s.{sid}"] = (total("verify.scenario", sid=sid), "s")
    verify_self = total("verify.scenario", own=True)
    for key in VERIFY_CALLS.values():
        m[f"verify.{key}_s"] = (total(f"verify.{key}"), "s")
        verify_self += total(f"verify.{key}", own=True)
    # Verify's own work: kernel probes, norm-ratio and shift-norm estimation.
    m["verify.self_s"] = (verify_self, "s")
    m["verify.verdicts"] = (verdicts, "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process bspdelab run")
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id)
    install(tracer)
    from bspdelab import cli

    error = None
    try:
        exit_code = cli.main(["run", args.config, "--jobs", "1",
                              "--seed", str(args.seed), "--out", args.out])
    except Exception:  # a crashing scenario is reported, not re-raised
        exit_code, error = 1, traceback.format_exc()

    out = Path(args.out)
    verdicts = sum(len(json.loads((out / sid / "verdicts.json").read_text()))
                   for sid in scenario_ids(Path(args.config))
                   if (out / sid / "verdicts.json").is_file())
    # The manifest holds the output path, so its size varies with the checkout.
    export_bytes = sum(p.stat().st_size for p in out.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
    all_ids = scenario_ids(FULL_CONFIG)
    roots = [sp for sp in tracer.spans if sp["parent"] is None]
    report = {
        "exit_code": exit_code,
        "error": error,
        "paused_s": tracer.paused_s,
        "covered_s": sum(sp["end"] - sp["start"] for sp in roots),
        "metrics": layer_metrics(tracer, all_ids, verdicts, export_bytes),
        "spans": tracer.spans,
    }
    Path(args.spans).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
