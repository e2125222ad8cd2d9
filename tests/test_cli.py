import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bspdelab

from bspdelab import cli
from bspdelab.cli import (
    CONFIG_DIR,
    SchemaError,
    _run_one,
    load_config,
    main,
    resolve_config_path,
)
from bspdelab.scenarios import get_scenario
from bspdelab.verify import artifact_files

WORKLOAD_DIR = Path(__file__).resolve().parents[1] / "benchmark" / "workloads"

REQUIRED_IDS = {
    "heat_smoke", "heat_quadratic", "sin_decay", "stochastic_sinWT",
    "variable_a_sin", "transport_decay", "semilinear_mode", "beta_sweep",
    "kernel_suite", "apriori_study", "time_shift_sweep",
}


class TestConfigSchema:
    def test_bundled_names_resolve(self):
        assert resolve_config_path("heat_smoke").name == "heat_smoke.ini"

    def test_unknown_config_rejected(self):
        with pytest.raises(SchemaError):
            resolve_config_path("definitely_not_a_config")

    def test_missing_run_section(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[scenario.sin_decay]\nseed = 1\n")
        with pytest.raises(SchemaError, match=r"\[run\]"):
            load_config(p)

    def test_unknown_scenario_anchored(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenarios = nope\n")
        with pytest.raises(SchemaError) as exc:
            load_config(p)
        assert exc.value.line == 2
        assert "unknown scenario" in str(exc.value)

    def test_unknown_override_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenarios = sin_decay\n"
                     "[scenario.sin_decay]\ncolour = red\n")
        with pytest.raises(SchemaError, match="unknown key"):
            load_config(p)

    def test_type_errors_anchored(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenarios = sin_decay\n"
                     "[scenario.sin_decay]\nnum_steps = many\n")
        with pytest.raises(SchemaError, match="int"):
            load_config(p)

    def test_valid_config_parses(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenarios = sin_decay, kernel_suite\nseed = 3\n"
                     "[scenario.sin_decay]\nnum_steps = 20\n")
        cfg = load_config(p)
        assert cfg["seed"] == 3
        assert [s.scenario_id for s in cfg["scenarios"]] \
            == ["sin_decay", "kernel_suite"]
        assert cfg["scenarios"][0] == dataclasses.replace(
            get_scenario("sin_decay"), num_steps=20)
        assert cfg["scenarios"][1] is get_scenario("kernel_suite")

    @pytest.mark.parametrize("key, raw, value", [
        ("num_steps", "20", 20),
        ("points_per_axis", "65", 65),
        ("radius", "5.5", 5.5),
        ("horizon", "0.5", 0.5),
        ("num_paths", "4", 4),
        ("seed", "3", 3),
        ("beta", "2.0", 2.0),
        ("sup_tolerance", "0.01", 0.01),
        ("residual_tolerance", "0.02", 0.02),
    ])
    def test_each_key_sets_its_spec_field(self, tmp_path, key, raw, value):
        p = tmp_path / "c.ini"
        p.write_text(f"[run]\nscenarios = sin_decay\n[scenario.sin_decay]\n{key} = {raw}\n")
        (spec,) = load_config(p)["scenarios"]
        assert getattr(spec, key) == value != getattr(get_scenario("sin_decay"), key)
        assert type(getattr(spec, key)) is type(value)


@pytest.mark.parametrize(
    "config", sorted(CONFIG_DIR.glob("*.ini")) + sorted(WORKLOAD_DIR.glob("*.ini")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_load(config):
    assert load_config(config)["scenarios"]


class TestList:
    def test_catalog_contains_required_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for sid in REQUIRED_IDS:
            assert sid in out

    def test_json_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        ids = {e["id"] for e in entries}
        assert REQUIRED_IDS <= ids
        assert all(e["provenance"] for e in entries)

    def test_catalog_flag_is_unrecognized(self, tmp_path, capsys):
        p = tmp_path / "cat.ini"
        p.write_text("[sin_decay]\n")
        with pytest.raises(SystemExit) as exc:
            main(["list", "--catalog", str(p)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --catalog" in capsys.readouterr().err


class TestWriteCsv:
    def test_plot_rows_equal_csv_writer(self, tmp_path):
        rows = [{"points": 65, "h": 0.3125, "error": float("inf")},
                {"points": 129, "h": -0.0, "error": float("nan")},
                {"points": 257, "h": 0.1, "error": 1e-300}]
        cli._write_csv(tmp_path / "fast.csv", {k: [r[k] for r in rows] for k in rows[0]})
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(list(rows[0]))
            for row in rows:
                wr.writerow([f"{v:.17g}" if isinstance(v, float) else str(v)
                             for v in row.values()])
        ref = (tmp_path / "ref.csv").read_bytes()
        assert ref.splitlines()[1:3] == [b"65,0.3125,inf", b"129,-0,nan"]
        assert (tmp_path / "fast.csv").read_bytes() == ref


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    code = main(["run", "heat_smoke", "--out", str(out)])
    return code, out


class TestRun:
    def test_smoke_exit_zero(self, smoke_run):
        code, out = smoke_run
        assert code == 0

    def test_manifest_written_with_artifact_index(self, smoke_run):
        code, out = smoke_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["seed"] == 0
        assert "heat_smoke/solution.csv" in manifest["artifacts"]
        assert "kernel_suite/verdicts.json" in manifest["artifacts"]
        for entry in manifest["scenarios"]:
            assert entry["failed"] == []
            assert entry["wall_s"] > 0 and entry["process_peak_rss_mb"] > 0

    def test_planned_artifacts_are_the_written_ones(self, smoke_run):
        code, out = smoke_run
        cfg = load_config(resolve_config_path("heat_smoke"))
        planned = [f for spec in cfg["scenarios"] for f in artifact_files(spec)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == planned
        on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        assert on_disk == set(planned)

    def test_time_shift_sweep_writes_its_plan(self, tmp_path):
        base = get_scenario("time_shift_sweep")
        spec = dataclasses.replace(
            base, extras={**base.extras, "scenarios": ("sin_decay",)})
        _run_one(spec, None, tmp_path)
        on_disk = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert artifact_files(spec) == [
            "time_shift_sweep/verdicts.json",
            "time_shift_sweep/norm_vs_tau_sin_decay.csv"]
        assert on_disk == sorted(artifact_files(spec))

    def test_solution_csv_format(self, smoke_run):
        code, out = smoke_run
        with open(out / "heat_smoke" / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "t", "x", "u", "v_1"]
        assert len(rows) > 100

    def test_verdicts_json_parses(self, smoke_run):
        code, out = smoke_run
        verdicts = json.loads((out / "kernel_suite" / "verdicts.json").read_text())
        assert all(v["provenance"] for v in verdicts)
        assert all(v["status"] == "pass" for v in verdicts)

    def test_nonempty_out_dir_refused(self, smoke_run, capsys):
        code, out = smoke_run
        assert main(["run", "heat_smoke", "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_path_through_a_file_refused(self, tmp_path, capsys, force, below):
        f = tmp_path / "taken"
        f.write_text("not a directory\n")
        out = f / "run" if below else f
        assert main(["run", "heat_smoke", "--out", str(out)] + force) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{out}: cannot use as output directory")
        assert err.count("\n") == 1
        assert f.read_text() == "not a directory\n"

    @pytest.mark.parametrize("sid, line, expected, at", [
        # the ellipticity bounds are scenario data, not keys
        ("variable_a_sin", "lam = 0.65", "unknown key 'lam' in [scenario.variable_a_sin]", 4),
        ("sin_decay", "points_per_axis = 4", "points_per_axis", 4),
        ("sin_decay", "num_paths = -1", "num_paths", 4),
        ("stochastic_sinWT", "num_paths = 0", "path ensemble", 4),
        ("sin_decay", "beta = -1", "damping beta", 4),
        ("kernel_suite", "num_steps = 5", "takes no overrides", 4),
        ("apriori_study", "points_per_axis = 65", "takes no overrides", 4),
        ("time_shift_sweep", "num_steps = 10", "takes no overrides", 4),
        ("sin_decay", "horizon = 0.7", "not a multiple of the grid step", 4),
        ("stochastic_sinWT", "horizon = 0.2", "0 < tau < T", 4),
        ("sin_decay", "[scenario.heat_smoke]\ncolour = red", "does not list", 4),
        # the anchor of a repeated id is the scenarios key
        ("heat_smoke, sin_decay, heat_smoke", "num_steps = 20", "listed twice", 2),
        # a key that is a prefix of an earlier key is anchored at its own line
        ("heat_smoke", "num_steps = 10\nnum = 3", "unknown key 'num'", 5),
        ("heat_smoke", "radius = nan", "must be finite", 4),
        ("heat_smoke", "horizon = inf", "must be finite", 4),
        ("heat_smoke", "sup_tolerance = nan", "must be finite", 4),
        ("semilinear_mode", "beta = inf", "must be finite", 4),
        ("stochastic_sinWT", "seed = -1", "seed must be >= 0", 4),
        ("heat_smoke", "sup_tolerance = -1", "must be > 0", 4),
        ("heat_smoke", "residual_tolerance = 0", "must be > 0", 4),
    ], ids=["lam", "points_per_axis", "num_paths",
            "num_paths_zero_stochastic", "beta",
            "kernel_suite", "apriori_study", "time_shift_sweep",
            "horizon_off_shift_grid", "horizon_below_shift", "unlisted_section",
            "duplicate_id", "key_prefix_of_earlier_key", "radius_nan",
            "horizon_inf", "sup_tolerance_nan", "beta_inf", "seed_negative",
            "sup_tolerance_negative", "residual_tolerance_zero"])
    def test_schema_violation_exits_two(self, tmp_path, capsys, sid, line, expected, at):
        p = tmp_path / "bad.ini"
        section = sid.split(",")[0]
        p.write_text(f"[run]\nscenarios = {sid}\n[scenario.{section}]\n{line}\n")
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert expected in err
        assert f"bad.ini:{at}" in err

    def test_anchor_is_in_the_overriding_section(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nscenarios = sin_decay, heat_smoke\n"
                     "[scenario.sin_decay]\nnum_steps = 20\n"
                     "[scenario.heat_smoke]\nnum_steps = 0\n")
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bad.ini:6" in capsys.readouterr().err

    def test_anchor_is_at_the_bad_key_of_a_section(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nscenarios = variable_a_sin\n"
                     "[scenario.variable_a_sin]\nradius = 1.0\nnum_steps = 0\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "bad.ini:5: num_steps = 0 in [scenario.variable_a_sin]" \
            in capsys.readouterr().err

    def test_run_key_anchor_is_in_the_run_section(self, tmp_path, capsys):
        p = tmp_path / "bad_seed.ini"
        p.write_text("[scenario.heat_smoke]\nseed = 3\n\n"
                     "[run]\nscenarios = heat_smoke\nseed = abc\n")
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed must be an integer" in err
        assert "bad_seed.ini:6" in err

    def test_negative_run_seed_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nscenarios = stochastic_sinWT\nseed = -1\n")
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.ini:3: seed must be >= 0, got -1" in err

    def test_unknown_run_key_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nscenarios = heat_smoke\nsede = 3\n")
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key 'sede' in [run]" in err
        assert "bad.ini:3" in err

    def test_empty_scenario_list_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nseed = 1\nscenarios =\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "bad.ini:3: [run] scenarios lists no scenario" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_section_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nscenarios = heat_smoke\n[DEFAULT]\nnum_steps = 20\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "bad.ini:3: unexpected section [DEFAULT]" in capsys.readouterr().err

    def test_beta_sweep_plot_csv(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "semilinear_beta_sweep", "--out", str(out)]) == 0
        with open(out / "beta_sweep" / "contraction_vs_beta.csv",
                  newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["beta", "contraction_factor", "iterations"]
        assert len(rows) == 4
        factors = [float(r[1]) for r in rows[1:]]
        assert factors[0] > factors[1] > factors[2]

    @pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
    def test_byte_identical_verdicts_across_runs(self, tmp_path, smoke_run, jobs):
        code, out1 = smoke_run
        out2 = tmp_path / "o2"
        assert main(["run", "heat_smoke", "--out", str(out2), "--jobs", str(jobs)]) == 0
        for rel in ("heat_smoke/verdicts.json", "kernel_suite/verdicts.json"):
            a = (out1 / rel).read_bytes()
            b = (out2 / rel).read_bytes()
            assert a == b

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "o"
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenarios = heat_smoke\nseed = 5\n")
        assert main(["run", str(p), "--seed", "9", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_exits_two(self, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "heat_smoke", "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "heat_smoke", "--out", str(out), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_verdict_exits_one(self, tmp_path, capsys, monkeypatch):
        real = cli.run_scenario

        def run_scenario(spec, seed=None):
            verdicts, artifacts = real(spec, seed=seed)
            if spec.scenario_id == "heat_smoke":
                verdicts[0] = dataclasses.replace(verdicts[0], status="fail")
            return verdicts, artifacts

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        out = tmp_path / "o"
        assert main(["run", "heat_smoke", "--out", str(out)]) == 1
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
        assert "1 pass, 1 fail" in capsys.readouterr().out.splitlines()

    def test_manifest_names_the_failing_verdict(self, tmp_path, smoke_run):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nscenarios = heat_smoke, kernel_suite\n"
                     "[scenario.heat_smoke]\nsup_tolerance = 1e-12\n")
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        entries = {e["id"]: e for e in manifest["scenarios"]}
        assert entries["heat_smoke"]["failed"] == ["oracle.heat_smoke"]
        assert entries["kernel_suite"]["failed"] == []
        # the override moves the oracle verdict only
        _, healthy = smoke_run
        for rel in manifest["artifacts"]:
            if rel != "heat_smoke/verdicts.json":
                assert (out / rel).read_bytes() == (healthy / rel).read_bytes(), rel

    @pytest.fixture
    def heat_smoke_raises(self, monkeypatch):
        real = cli.run_scenario

        def run_scenario(spec, seed=None):
            if spec.scenario_id == "heat_smoke":
                raise RuntimeError("injected failure")
            return real(spec, seed=seed)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)

    @pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
    def test_raising_scenario_exits_three_and_the_rest_run(
            self, tmp_path, smoke_run, heat_smoke_raises, jobs):
        out = tmp_path / "o"
        assert main(["run", "heat_smoke", "--out", str(out), "--jobs", str(jobs)]) == 3
        assert "RuntimeError: injected failure" in (out / "heat_smoke/error.txt").read_text()
        _, healthy = smoke_run
        rel = "kernel_suite/verdicts.json"
        assert (out / rel).read_bytes() == (healthy / rel).read_bytes()

    def test_raising_scenario_is_errored_in_the_manifest(
            self, tmp_path, smoke_run, heat_smoke_raises):
        out = tmp_path / "o"
        main(["run", "heat_smoke", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        entries = {e["id"]: e for e in manifest["scenarios"]}
        assert manifest["status"] == "errored"
        assert entries["heat_smoke"]["status"] == "errored"
        assert entries["heat_smoke"]["error"] == "RuntimeError: injected failure"
        assert "status" not in entries["kernel_suite"]
        assert manifest["artifacts"] == ["heat_smoke/error.txt", "kernel_suite/verdicts.json"]
        # a healthy run's scenario entries carry no status
        _, healthy = smoke_run
        healthy_manifest = json.loads((healthy / "manifest.json").read_text())
        assert all("status" not in e for e in healthy_manifest["scenarios"])


def test_config_load_and_heat_smoke_run_load_no_scipy():
    # scipy is a test-only dependency; its import is most of a process's
    # set-up time, so neither set-up nor a solve, abs_kink's erf oracle
    # included, may load it
    code = """
import sys
from bspdelab import cli, verify
from bspdelab.scenarios import get_scenario

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

cli.load_config(cli.resolve_config_path("full"))
assert not scipy_modules(), scipy_modules()
for sid in ("heat_smoke", "abs_kink"):
    verdicts, _ = verify.run_scenario(get_scenario(sid), seed=0)
    assert all(v.status == "pass" for v in verdicts)
    assert not scipy_modules(), (sid, scipy_modules())
"""
    src = str(Path(bspdelab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_set_up_heat_smoke_and_kernel_suite_runs_draw_no_random_number():
    # set-up (the import and load_config of a workload) loads neither
    # numpy.random nor scipy, and neither a deterministic run nor the kernel
    # suite, whose identity probes are a fixed table, draws a random number
    code = f"""
import sys
from bspdelab import cli

cli.load_config({str(WORKLOAD_DIR / "picard.ini")!r})
loaded = sorted(m for m in sys.modules if m.startswith(("numpy.random", "scipy")))
assert not loaded, loaded

from bspdelab import verify
from bspdelab.scenarios import get_scenario

verdicts, _ = verify.run_scenario(get_scenario("heat_smoke"), seed=None)
assert all(v.status == "pass" for v in verdicts)
assert "numpy.random" not in sys.modules
assert all(v.status == "pass" for v in verify.run_kernel_suite())
assert "numpy.random" not in sys.modules
"""
    src = str(Path(bspdelab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
