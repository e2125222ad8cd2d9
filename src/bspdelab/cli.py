"""Command-line front end: configs, run orchestration, artifact emission.

Configs are flat INI files: a [run] section lists one or more scenarios (keys
scenarios, seed and out, nothing else), and an optional [scenario.<id>]
section sets numeric fields of that scenario's ScenarioSpec, one per key.
Loading a config gives the list of overridden specs; each key is checked
at its own line, on the spec with the section's earlier keys applied.  An
override applies to every check of its scenario, the scenario's own studies
included.  The studies that build no coefficients (kernel_suite,
apriori_study, time_shift_sweep) take no overrides: any key in their
section is a schema violation, and so is a horizon the time-shift study
cannot shift on.  Runs write a manifest before anything else, listing the
files ``verify.artifact_files`` plans, then per-scenario verdict JSON,
solution CSV, and plot-data CSV files.  A scenario that raises writes its
traceback to ``<id>/error.txt`` and is marked "errored" in the manifest; the
others still run.  Exit codes: 0 clean, 1 at least one failed verdict, 2
config schema violation or bad command line, 3 at least one scenario errored.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import math
import re
import sys
import time
import traceback
from pathlib import Path

from .errors import InvalidArgument
from .scenarios import CATALOG, ScenarioSpec, list_scenarios
from .verify import artifact_files, run_scenario, shift_grid, table, to_json

CONFIG_DIR = Path(__file__).parent / "configs"

_RUN_KEYS = ("scenarios", "seed", "out")

# a [scenario.<id>] key sets the ScenarioSpec field of its name; the numeric
# fields are the settable ones (annotations are strings in scenarios.py)
_OVERRIDE_TYPES = {f.name: {"int": int, "float": float}[f.type]
                   for f in dataclasses.fields(ScenarioSpec) if f.type in ("int", "float")}


class SchemaError(Exception):
    """Config violates the documented schema; carries a file anchor."""

    def __init__(self, message, path, line=None):
        self.path = path
        self.line = line
        super().__init__(message)

    def anchored(self) -> str:
        loc = str(self.path) if self.path else "<config>"
        if self.line is not None:
            loc += f":{self.line}"
        return f"{loc}: {self.args[0]}"


def _find_line(path, needle, section=None) -> int | None:
    """First 1-based line that holds the needle: a "[header]" needle starts
    the stripped line, a key needle is followed by optional spaces and "=" or
    ":" (so "num" does not match "num_steps = 10").

    With ``section``, only the lines under its [section] header count.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    pattern = re.escape(needle.lower())
    if not needle.startswith("["):
        pattern += r"\s*[=:]"
    inside = section is None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip().lower()
        if section is not None and line.startswith("["):
            inside = line.startswith(f"[{section.lower()}]")
        elif inside and re.match(pattern, line):
            return i
    return None


def resolve_config_path(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    bundled = CONFIG_DIR / f"{arg}.ini"
    if bundled.exists():
        return bundled
    raise SchemaError(f"config {arg!r} is neither a file nor a bundled config "
                      f"(bundled: {sorted(c.stem for c in CONFIG_DIR.glob('*.ini'))})",
                      path=arg)


def _read_ini(path) -> configparser.ConfigParser:
    """The parsed INI file; SchemaError with a file:line anchor if unreadable
    or if it has a [DEFAULT] section."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as e:
        raise SchemaError(str(e), path=path)
    except configparser.Error as e:
        line = getattr(e, "lineno", None)
        raise SchemaError(str(e).replace("\n", " "), path=path, line=line)
    if cp.defaults():
        # configparser copies [DEFAULT] keys into every section
        raise SchemaError("unexpected section [DEFAULT]; its keys would apply "
                          "to every section", path=path, line=_find_line(path, "[default]"))
    return cp


def load_config(path: Path) -> dict:
    """Parse and validate a run config.

    Returns {"scenarios": [spec, ...], "seed": int|None, "out": str|None},
    each spec the catalog entry with its section's keys applied in order.
    A key is checked as it is applied, so SchemaError, anchored at the
    file:line of the first violation, names the key at fault.
    """
    cp = _read_ini(path)
    if "run" not in cp:
        raise SchemaError("missing required [run] section", path=path, line=1)
    run = cp["run"]
    for key in run:
        if key not in _RUN_KEYS:
            raise SchemaError(f"unknown key {key!r} in [run]; allowed: {list(_RUN_KEYS)}",
                              path=path, line=_find_line(path, key, "run"))
    if "scenarios" not in run:
        raise SchemaError("[run] must list scenarios = id, id, ...",
                          path=path, line=_find_line(path, "[run]"))
    ids = [s.strip() for s in run["scenarios"].replace("\n", ",").split(",")
           if s.strip()]
    if not ids:
        raise SchemaError("[run] scenarios lists no scenario",
                          path=path, line=_find_line(path, "scenarios", "run"))
    for n, sid in enumerate(ids):
        if sid not in CATALOG:
            raise SchemaError(
                f"unknown scenario {sid!r}; known: {sorted(CATALOG)}",
                path=path, line=_find_line(path, "scenarios", "run"))
        if sid in ids[:n]:
            # both runs would write the same <id>/ directory
            raise SchemaError(f"scenario {sid!r} is listed twice in [run] scenarios",
                              path=path, line=_find_line(path, "scenarios", "run"))

    seed = None
    if "seed" in run:
        try:
            seed = int(run["seed"])
        except ValueError:
            raise SchemaError(f"seed must be an integer, got {run['seed']!r}",
                              path=path, line=_find_line(path, "seed", "run"))
        if seed < 0:
            # numpy.random.default_rng takes only non-negative seeds
            raise SchemaError(f"seed must be >= 0, got {seed}",
                              path=path, line=_find_line(path, "seed", "run"))
    out = run.get("out") or None

    for section in cp.sections():
        if section == "run":
            continue
        if not section.startswith("scenario."):
            raise SchemaError(
                f"unexpected section [{section}]; only [run] and "
                "[scenario.<id>] are recognized",
                path=path, line=_find_line(path, f"[{section}]"))
        sid = section.split(".", 1)[1]
        if sid not in CATALOG:
            raise SchemaError(f"section [{section}] names an unknown scenario",
                              path=path, line=_find_line(path, f"[{section}]"))
        if sid not in ids:
            raise SchemaError(f"section [{section}] configures {sid}, which "
                              "[run] scenarios does not list",
                              path=path, line=_find_line(path, f"[{section}]"))

    scenarios = []
    for sid in ids:
        spec = CATALOG[sid]
        section = f"scenario.{sid}"
        for key, raw in (cp[section].items() if section in cp else ()):
            try:
                spec = _override(spec, section, key, raw)
            except InvalidArgument as e:
                raise SchemaError(str(e), path=path,
                                  line=_find_line(path, key, section)) from None
        scenarios.append(spec)
    return {"scenarios": scenarios, "seed": seed, "out": out}


def _override(spec, section, key, raw):
    """``spec`` with one section key set to its raw value, checked so that a
    bad value exits 2 at load time instead of crashing the run: the spec's
    grids and solver config must build.  InvalidArgument carries the message
    to report at the key's line."""
    if spec.build_coeffs is None:
        raise InvalidArgument(f"{key} in [{section}]: {spec.scenario_id} builds no "
                              "coefficients and takes no overrides")
    if key not in _OVERRIDE_TYPES:
        raise InvalidArgument(f"unknown key {key!r} in [{section}]; allowed: "
                              f"{sorted(_OVERRIDE_TYPES)}")
    kind = _OVERRIDE_TYPES[key]
    try:
        value = kind(raw)
    except ValueError:
        raise InvalidArgument(f"{key} must be {kind.__name__}, got {raw!r}") from None
    try:
        if not math.isfinite(value):
            raise InvalidArgument("must be finite")
        spec = dataclasses.replace(spec, **{key: value})
        spec.config()
        if "time_shift" in spec.checks:
            shift_grid(spec)
        if spec.num_paths < 0:
            raise InvalidArgument("num_paths must be >= 0")
        if spec.seed < 0:
            raise InvalidArgument("seed must be >= 0")
        if min(spec.sup_tolerance, spec.residual_tolerance) <= 0.0:
            raise InvalidArgument("sup_tolerance and residual_tolerance must be > 0")
        if (key == "num_paths" and spec.num_paths == 0
                and not spec.build_coeffs().is_deterministic()):
            raise InvalidArgument("stochastic data needs a path ensemble (num_paths >= 1)")
    except InvalidArgument as e:
        raise InvalidArgument(f"{key} = {raw} in [{section}]: {e}") from None
    return spec


# -- artifact emission ------------------------------------------------------

def _write_rows_csv(path: Path, rows):
    """Plot-data CSV: header from row keys, 17 significant digits."""
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(keys)
        for row in rows:
            wr.writerow([
                f"{v:.17g}" if isinstance(v, float) else str(v)
                for v in (row[k] for k in keys)
            ])


def write_manifest(out_dir: Path, config_path, specs, seed, artifacts, status,
                   errors):
    """Write manifest.json; a scenario in ``errors`` (id -> text) is "errored"."""
    scenarios = []
    for s in specs:
        entry = {"id": s.scenario_id, "kind": s.kind, "description": s.description}
        if s.scenario_id in errors:
            entry.update(status="errored", error=errors[s.scenario_id])
        scenarios.append(entry)
    manifest = {
        "config": str(config_path),
        "scenarios": scenarios,
        "out_dir": str(out_dir),
        "seed": seed,
        "artifacts": artifacts,
        "status": status,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _run_one(spec, seed, out_dir: Path):
    """Run one scenario and write the files ``artifact_files`` plans."""
    verdicts, artifacts = run_scenario(spec, seed=seed)
    (out_dir / spec.scenario_id).mkdir(exist_ok=True)
    files = artifact_files(spec)
    for rel in files:
        path = out_dir / rel
        if path.name == "verdicts.json":
            path.write_text(to_json(verdicts))
        elif path.name == "solution.csv":
            artifacts["solution"].to_csv(path)
        elif path.name == "summary.json":
            residual = artifacts["summary"]
            path.write_text(artifacts["solution"].summary_json(
                residual["rms"], residual["worst"]) + "\n")
        else:
            _write_rows_csv(path, artifacts[path.stem])
    return verdicts, files


def cmd_run(args) -> int:
    try:
        cfg_path = resolve_config_path(args.config)
        cfg = load_config(cfg_path)
    except SchemaError as e:
        print(e.anchored(), file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else cfg["seed"]
    out_dir = Path(args.out or cfg["out"]
                   or f"runs/{cfg_path.stem}")
    try:
        if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
            print(f"{out_dir}: output directory is not empty (use --force)",
                  file=sys.stderr)
            return 2
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        # a file where the directory should be, or a file among its parents
        print(f"{out_dir}: cannot use as output directory ({e.strerror})",
              file=sys.stderr)
        return 2

    specs = cfg["scenarios"]
    planned = [f for s in specs for f in artifact_files(s)]
    write_manifest(out_dir, cfg_path, specs, seed, planned, "started", {})

    def run_isolated(spec):
        """_run_one's result, or the exception text once the traceback is saved."""
        try:
            return _run_one(spec, seed, out_dir)
        except Exception as e:
            (out_dir / spec.scenario_id).mkdir(exist_ok=True)
            (out_dir / spec.scenario_id / "error.txt").write_text(traceback.format_exc())
            return f"{type(e).__name__}: {e}"

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_isolated, specs))
    else:
        results = [run_isolated(s) for s in specs]
    failed = False
    errors = {}
    emitted = []
    for spec, result in zip(specs, results):
        print(f"== {spec.scenario_id}")
        if isinstance(result, str):
            errors[spec.scenario_id] = result
            emitted.append(f"{spec.scenario_id}/error.txt")
            print(f"errored: {result} (traceback in {spec.scenario_id}/error.txt)")
            continue
        verdicts, written = result
        emitted.extend(written)
        print(table(verdicts))
        failed = failed or any(v.status == "fail" for v in verdicts)

    status = "errored" if errors else "failed" if failed else "completed"
    write_manifest(out_dir, cfg_path, specs, seed, emitted, status, errors)
    print(f"artifacts in {out_dir}")
    return 3 if errors else 1 if failed else 0


def cmd_list(args) -> int:
    entries = list_scenarios()
    if args.json:
        print(json.dumps([
            {"id": s.scenario_id, "kind": s.kind,
             "description": s.description, "provenance": s.provenance}
            for s in entries
        ], indent=2))
        return 0
    for s in entries:
        print(f"{s.scenario_id:<18} {s.description}  [{s.provenance}]")
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bspdelab",
        description="run and certify the bundled solver scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a run config")
    run.add_argument("config", help="config file path or bundled config name")
    run.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="scenario-level parallelism")
    run.add_argument("--seed", type=_int_at_least(0), default=None,
                     help="global seed, overrides the config")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--force", action="store_true",
                     help="allow a non-empty output directory")
    run.set_defaults(fn=cmd_run)

    lst = sub.add_parser("list", help="print the scenario catalog")
    lst.add_argument("--json", action="store_true")
    lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
