"""bspdelab benchmark: time `bspdelab run <workload>` end to end, or trace it.

Usage (from the root of a source checkout):

    python3 benchmark/run.py --workload picard --seed 0 --seconds 30 --trace 0

--trace 0 runs the workload config as a subprocess in a closed loop (one run
at a time, one process, `--jobs 1`, BLAS/OpenMP threads pinned to 1) for
--seconds, then times a fresh set-up process several times, and prints the
end-to-end metrics.  --trace 1 makes a traced run (benchmark/trace.py)
between two untraced ones and prints the per-layer metrics.  Every run's
verdicts are checked against benchmark/reference/<workload>.json.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See benchmark/README.md for the workloads and metrics.

--write-reference regenerates the reference file of a workload.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FULL_CONFIG = SRC / "bspdelab" / "configs" / "full.ini"
WORKLOAD_DIR = BENCH_DIR / "workloads"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0  # the seed of the bundled `full` config
SETUP_REPEATS = 3
ROUNDOFF = 1e-12  # relative tolerance on measured verdict values
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh process pays this before the first scenario can start.
SETUP_CODE = """\
import sys
from pathlib import Path
from bspdelab import cli, verify
cli.load_config(Path(sys.argv[1]))
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or bad workloads)."""


def scenario_ids(config: Path) -> list:
    cp = configparser.ConfigParser()
    with open(config) as fh:
        cp.read_file(fh)
    raw = cp["run"]["scenarios"]
    return [s.strip() for s in raw.replace("\n", ",").split(",") if s.strip()]


def workload_names() -> list:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.ini"))


def check_partition():
    """The workload configs list exactly the scenarios of full.ini, each once."""
    if not FULL_CONFIG.is_file():
        raise BenchError(f"{FULL_CONFIG} not found: run from a source checkout")
    full = scenario_ids(FULL_CONFIG)
    listed = [sid for name in workload_names()
              for sid in scenario_ids(WORKLOAD_DIR / f"{name}.ini")]
    dupes = sorted({sid for sid in listed if listed.count(sid) > 1})
    missing = sorted(set(full) - set(listed))
    extra = sorted(set(listed) - set(full))
    if dupes or missing or extra:
        raise BenchError(
            "workloads must partition full.ini: "
            f"in several workloads {dupes}, unassigned {missing}, "
            f"not in full.ini {extra}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "jobs": 1,
        **{var: "1" for var in PINNED_THREADS},
    }


def spawn(argv, log: Path):
    """Run argv to completion; return (exit code, wall s, cpu s, max RSS MB)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def run_workload(config: Path, seed: int, out: Path):
    """One untraced `bspdelab run`; returns its measurements and verdict bytes."""
    argv = [sys.executable, "-m", "bspdelab.cli", "run", str(config),
            "--jobs", "1", "--seed", str(seed), "--out", str(out)]
    rc, wall, cpu, rss = spawn(argv, out.parent / f"{out.name}.log")
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "verdicts": read_verdicts(config, out)}


def read_verdicts(config: Path, out: Path) -> dict:
    verdicts = {}
    for sid in scenario_ids(config):
        path = out / sid / "verdicts.json"
        if path.is_file():
            verdicts[sid] = path.read_bytes()
    return verdicts


def close(a, b) -> bool:
    """Equal structure, with floats within the round-off rule."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ROUNDOFF * max(abs(a), abs(b))
    return a == b


def check_verdicts(reference: dict, verdicts: dict, seed: int, log: list):
    """Count (expected, failed) verdicts against the committed reference.

    A verdict fails when it is missing, fails, changes status, or, where the
    scenario's values do not depend on the seed (or the seed is the
    reference's), moves by more than round-off.  A scenario whose verdict
    ids differ from the reference's counts all its verdicts as failed.
    """
    expected = failed = 0
    for sid, ref in reference["scenarios"].items():
        expected += len(ref)
        try:
            got = {v["check_id"]: v for v in json.loads(verdicts.get(sid, b"[]"))}
        except (ValueError, KeyError, TypeError):
            got = {}
        if got.keys() != {v["check_id"] for v in ref}:
            failed += len(ref)
            log.append(f"{sid}: verdict ids differ from the reference")
            continue
        exact = seed == reference["seed"] or sid not in reference["seed_dependent"]
        for r in ref:
            g = got[r["check_id"]]
            if g["status"] == "fail" or g["status"] != r["status"] or (
                    exact and not close(g["measured"], r["measured"])):
                failed += 1
                log.append(f"{r['check_id']}: {g['status']} {g['measured']} "
                           f"(reference {r['status']} {r['measured']})")
    return expected, failed


def measure_setup(config: Path, scratch: Path) -> list:
    argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    times = []
    for i in range(SETUP_REPEATS):
        rc, wall, _, _ = spawn(argv, scratch / f"setup{i}.log")
        if rc != 0:
            raise BenchError(f"set-up process exited {rc}: "
                             + (scratch / f"setup{i}.log").read_text()[-2000:])
        times.append(wall)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, config, reference, scratch, log):
    """Closed loop: start runs until --seconds have passed, then time set-up.

    The last run may end after --seconds; every run counts, so a workload
    whose run is longer than half of --seconds still gets two.
    """
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        out = scratch / f"run{len(samples)}"
        samples.append(run_workload(config, args.seed, out))
        shutil.rmtree(out, ignore_errors=True)
    setup = measure_setup(config, scratch)

    expected = failed = 0
    for s in samples:
        e, f = check_verdicts(reference, s["verdicts"], args.seed, log)
        if s["rc"] != 0:
            log.append(f"run exited {s['rc']}")
        expected, failed = expected + e, failed + f
    ok = failed == 0 and all(s["rc"] == 0 for s in samples)
    med = {k: statistics.median(s[k] for s in samples)
           for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    print(f"runs: {len(samples)}  wall_s: "
          + " ".join(f"{s['wall_s']:.3f}" for s in samples)
          + "  setup_s: " + " ".join(f"{t:.3f}" for t in setup))
    metrics = {
        "wall_s": metric(med["wall_s"], "s"),
        "cpu_s": metric(med["cpu_s"], "s"),
        "peak_rss_mb": metric(med["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
        "verdicts_passed_frac": metric((expected - failed) / expected, "frac"),
    }
    return ok, expected, failed, metrics


def traced(args, config, reference, scratch, log):
    """A traced run between two untraced ones; per-layer metrics.

    Coverage and overhead are taken against the mean untraced wall time, so
    a drift in machine speed across the three runs biases neither.
    """
    bases = [run_workload(config, args.seed, scratch / "untraced0")]
    out = scratch / "traced"
    spans_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    argv = [sys.executable, str(BENCH_DIR / "trace.py"), str(config),
            "--seed", str(args.seed), "--out", str(out),
            "--spans", str(spans_file), "--run-id", f"{args.workload}/{args.seed}"]
    rc, wall, _, _ = spawn(argv, scratch / "traced.log")
    if rc != 0:
        raise BenchError("traced run failed: "
                         + (scratch / "traced.log").read_text()[-2000:])
    bases.append(run_workload(config, args.seed, scratch / "untraced1"))
    trace = json.loads(spans_file.read_text())
    verdicts = read_verdicts(config, out)

    expected = failed = 0
    for v in [b["verdicts"] for b in bases] + [verdicts]:
        e, f = check_verdicts(reference, v, args.seed, log)
        expected, failed = expected + e, failed + f
    for b in bases:
        if verdicts != b["verdicts"]:
            failed += 1
            log.append("traced verdict bytes differ from the untraced run's")
    ok = failed == 0 and trace["exit_code"] == 0 and all(
        b["rc"] == 0 for b in bases)
    if trace["error"]:
        log.append(trace["error"])

    layers = trace["metrics"]
    untraced_wall = statistics.mean(b["wall_s"] for b in bases)
    traced_wall = wall - trace["paused_s"]
    layers["trace.coverage_frac"] = metric(
        trace["covered_s"] / untraced_wall, "frac")
    layers["trace.overhead_frac"] = metric(
        traced_wall / untraced_wall - 1.0, "frac")
    print("untraced wall_s " + " ".join(f"{b['wall_s']:.3f}" for b in bases)
          + f", traced wall_s {traced_wall:.3f} (+{trace['paused_s']:.3f} s "
          f"of probes), spans in {spans_file.relative_to(ROOT)}")
    return ok, expected, failed, layers


def write_reference(workload: str, config: Path, scratch: Path):
    """Record the verdicts at the default seed, and which scenarios move
    with the seed (by a second run at another seed)."""
    runs = {}
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
        r = run_workload(config, seed, scratch / f"ref{seed}")
        if r["rc"] != 0:
            raise BenchError(f"reference run at seed {seed} exited {r['rc']}")
        runs[seed] = {sid: json.loads(raw) for sid, raw in r["verdicts"].items()}
    base, other = runs[DEFAULT_SEED], runs[DEFAULT_SEED + 1]
    reference = {
        "workload": workload,
        "seed": DEFAULT_SEED,
        "seed_dependent": sorted(sid for sid in base if base[sid] != other[sid]),
        "scenarios": base,
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{workload}.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        check_partition()
        if args.workload not in workload_names():
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {workload_names()}")
        config = WORKLOAD_DIR / f"{args.workload}.ini"
        OUT_DIR.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
        try:
            if args.write_reference:
                write_reference(args.workload, config, scratch)
                return 0
            reference = json.loads(
                (REFERENCE_DIR / f"{args.workload}.json").read_text())
            print("env:", json.dumps(environment(), sort_keys=True))
            log = []
            run = traced if args.trace else untraced
            ok, attempted, failed, metrics = run(args, config, reference,
                                                 scratch, log)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for line in log[:20]:
        print("verdict check:", line)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
