import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lagflow
from lagflow.cli import main
from lagflow.config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config_text,
    stage_seed,
)
from lagflow.pipeline import STAGE_ORDER

TINY = """
output_dir = {out}
master_seed = 11
solver.n = 16
solver.dt = 0.02
solver.t_end = 1.0
flow.m = 4
flow.dt = 0.05
weights.pair_count = 1000
picard.m = 2
picard.dt = 0.05
probe.m = 2
probe.dt = 0.05
probe.halvings = 1
probe.seeds = 0
probe.epsilons = 0.05
"""


class TestParsing:
    def test_empty_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg["solver.n"] == 32
        assert cfg["solver.nu"] == 0.05
        assert cfg["flow.schemes"] == ["rk4", "euler"]
        assert math.isinf(cfg["solver.n_moll"])

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nsolver.n = 16  # inline\n")
        assert cfg["solver.n"] == 16

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*solver.viscosity"):
            parse_config_text("solver.n = 16\nsolver.viscosity = 1\n")

    def test_type_mismatch_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("solver.n = many\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("solver.n = 16\nsolver.n = 32\n")

    def test_nu_precondition_message(self):
        with pytest.raises(ConfigError, match="nu must be > 0"):
            parse_config_text("solver.nu = -1\n")

    def test_structural_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("solver.n = 12\n")
        with pytest.raises(ConfigError):
            parse_config_text("solver.initial = vortex\n")
        with pytest.raises(ConfigError):
            parse_config_text("flow.schemes = rk4,heun\n")
        with pytest.raises(ConfigError):
            parse_config_text("probe.seeds = \n")
        with pytest.raises(ConfigError, match="flow.schemes"):
            parse_config_text("flow.schemes = \n")
        with pytest.raises(ConfigError, match="flow.m must be >= 4"):
            parse_config_text("flow.m = 3\n")

    @pytest.mark.parametrize("line", [
        "solver.t_end = inf", "solver.dt = inf", "solver.box_len = inf",
        "solver.nu = inf", "flow.dt = inf", "solver.energy = nan",
        "solver.amplitude = nan", "solver.amplitude = inf", "probe.epsilons = nan",
        "probe.epsilons = 0.05,inf", "probe.epsilons = -0.1", "solver.n_moll = nan",
    ])
    def test_non_finite_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config_text(line + "\n")

    def test_round_trip(self):
        text = "solver.n = 16\nsolver.nu = 0.07\nprobe.epsilons = 0.1,0.3\n"
        cfg = parse_config_text(text)
        again = parse_config_text(cfg.serialize())
        assert again.values == cfg.values
        assert config_hash(again) == config_hash(cfg)

    def test_direct_construction_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"solver.bogus": 1})


class TestStageSeeds:
    def test_reproducible(self):
        assert stage_seed(5, "weights") == stage_seed(5, "weights")

    def test_label_isolation(self):
        assert stage_seed(5, "weights") != stage_seed(5, "picard")
        # perturbing one label leaves the other stream untouched
        assert stage_seed(5, "picard") == stage_seed(5, "picard")

    def test_master_seed_matters(self):
        assert stage_seed(5, "weights") != stage_seed(6, "weights")


@pytest.fixture()
def tiny_config(tmp_path):
    out = tmp_path / "out"
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY.format(out=out))
    return p, out


class TestCli:
    def test_missing_config_is_runtime_error(self, capsys):
        assert main(["solve", "/nonexistent.cfg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("solver.warp = 9\n")
        assert main(["paper-check", str(p)]) == 1

    def test_solve_subcommand(self, tiny_config, capsys):
        cfg_path, out = tiny_config
        assert main(["solve", str(cfg_path)]) == 0
        assert (out / "diagnostics.csv").exists()
        assert (out / "field_final.lgf1").exists()
        assert "energy_inequality" in capsys.readouterr().out

    def test_verify_norms_pulls_in_solve(self, tiny_config):
        cfg_path, out = tiny_config
        assert main(["verify-norms", str(cfg_path), "--quiet"]) == 0
        assert (out / "norms.csv").exists()

    def test_paper_check_all_artifacts_and_manifest(self, tiny_config):
        cfg_path, out = tiny_config
        assert main(["paper-check", str(cfg_path), "--quiet"]) == 0
        for name in ("diagnostics.csv", "norms.csv", "weights.csv", "flow.csv",
                     "picard.csv", "probe.csv", "field_initial.lgf1",
                     "field_final.lgf1", "weight.lgs1", "trajectories.lgt1",
                     "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=reject_constant)
        assert manifest["complete"]
        assert len(manifest["stages"]) == 6
        for stage in manifest["stages"]:
            assert stage["seconds"] >= 0
            for art in stage["artifacts"]:
                assert len(art["sha256"]) == 64

    def test_determinism_byte_identical_csv(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            p = tmp_path / f"{tag}.cfg"
            p.write_text(TINY.format(out=out))
            assert main(["paper-check", str(p), "--quiet"]) == 0
            outs.append(out)
        for name in ("diagnostics.csv", "norms.csv", "weights.csv", "flow.csv",
                     "picard.csv", "probe.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def transforms_after_run(tmp_path, monkeypatch, stages):
    """Run `stages` at n = 16 and record, once solver.run is exhausted, each
    fields.gradient call and each fft.inverse of a 3-component array made
    outside gradient, with the stage that made it.  Returns (inverses as
    (stage, coeffs), gradient stages, final coefficients, initial ones)."""
    from lagflow import fft, fields, pipeline, solver

    solver_run, inverse, gradient = solver.run, fft.inverse, fields.gradient
    final, initial, inverses, gradients, in_gradient = [], [], [], [], []
    stage = [None]

    def counted_inverse(coeffs, n):
        if coeffs.shape[0] == 3 and not in_gradient:
            inverses.append((stage[0], coeffs))
        return inverse(coeffs, n)

    def counted_gradient(F):
        gradients.append(stage[0])
        in_gradient.append(True)
        try:
            return gradient(F)
        finally:
            in_gradient.pop()

    def run(u0, cfg):
        initial.append(u0.coeffs)
        for state in solver_run(u0, cfg):
            final[:] = [state[0].coeffs]
            yield state
        monkeypatch.setattr(fft, "inverse", counted_inverse)
        monkeypatch.setattr(fields, "gradient", counted_gradient)

    def staged(name, fn):
        def call(*args):
            stage[0] = name
            return fn(*args)
        return call

    monkeypatch.setattr(solver, "run", run)
    for name, fn in list(pipeline._STAGES.items()):
        monkeypatch.setitem(pipeline._STAGES, name, staged(name, fn))
    cfg = parse_config_text(f"output_dir = {tmp_path}\nsolver.n = 16\nsolver.t_end = 0.1\n"
                            "weights.pair_count = 1000\n")
    pipeline.pipeline_paper_check(cfg, stages)
    return inverses, gradients, final[0], initial[0]


def test_solve_stage_evaluates_final_state_once(tmp_path, monkeypatch):
    """After solver.run is exhausted, the solve stage transforms the final
    state once (field_final.lgf1 and the drift share it) and the initial
    state once (field_initial.lgf1), and takes no gradient."""
    inverses, gradients, final, initial = transforms_after_run(tmp_path, monkeypatch,
                                                              {"solve"})
    assert sum(c is final for _, c in inverses) == 1
    assert sum(c is initial for _, c in inverses) == 1
    assert len(inverses) == 2 and gradients == []


def test_stages_share_one_evaluation(tmp_path, monkeypatch):
    """The norms and weights stages read the solve stage's evaluation of
    the final state: no further vector inverse transform, and one gradient,
    taken in weights."""
    inverses, gradients, final, initial = transforms_after_run(
        tmp_path, monkeypatch, {"solve", "norms", "weights"})
    assert sum(c is final for _, c in inverses) == 1
    assert sum(c is initial for _, c in inverses) == 1
    assert [stage for stage, _ in inverses] == ["solve", "solve"]
    assert gradients == ["weights"]


def test_norms_manifest_thresholds(tmp_path):
    """The interpolation inequality is checked against 1 + 1e-9; the refined
    L^{3,1} and Agmon ratios carry fitted constants, so their verdict is
    finiteness and the manifest records rule finite with threshold null."""
    from lagflow import pipeline
    cfg = parse_config_text(f"output_dir = {tmp_path}\nsolver.n = 16\nsolver.t_end = 0.1\n")
    manifest = pipeline.pipeline_paper_check(cfg, {"norms"})
    norms = {c["name"]: (c["rule"], c["threshold"]) for c in manifest.checks
             if c["stage"] == "norms"}
    expected = {"lorentz_interpolation": ("<=", 1.000000001),
                "refined_l31": ("finite", None), "agmon": ("finite", None)}
    assert norms == expected
    assert all(c["status"] == "pass" for c in manifest.checks if c["stage"] == "norms")
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert [(c["name"], c["rule"], c["threshold"]) for c in written["checks"]
            if c["stage"] == "norms"] == [(name, *rt) for name, rt in expected.items()]


def reject_constant(token):
    raise ValueError(f"manifest.json holds the non-JSON token {token}")


# the test's own reading of each rule; a finite check has no threshold
RULES = {"<": lambda v, t: v < t, "<=": lambda v, t: v <= t,
         ">=": lambda v, t: v >= t, ">": lambda v, t: v > t,
         "finite": lambda v, t: t is None and math.isfinite(v)}


def test_statuses_follow_value_rule_and_threshold(tiny_config):
    """Every status in a paper-check manifest is the one its value, rule
    and threshold give, and norms.csv's passed column agrees with the
    norms statuses."""
    cfg_path, out = tiny_config
    assert main(["paper-check", str(cfg_path), "--quiet"]) == 0
    checks = json.loads((out / "manifest.json").read_text(),
                        parse_constant=reject_constant)["checks"]
    assert len(checks) == 15
    for c in checks:
        verdict = "pass" if RULES[c["rule"]](float(c["value"]), c["threshold"]) else "fail"
        control = c["name"] == "negative_control_branching"
        assert c["status"] == ("expected-fail: " if control else "") + verdict, c
    with open(out / "norms.csv") as f:
        passed = [row["passed"] for row in csv.DictReader(f)]
    assert passed == [{"pass": "true", "fail": "false"}[c["status"]]
                      for c in checks if c["stage"] == "norms"]


def test_non_finite_check_values_written_as_strings(tmp_path):
    """manifest.json stays strict JSON: a non-finite value or threshold is
    written as a string, and a non-finite value fails its check."""
    from lagflow.pipeline import RunManifest, StageRecord
    manifest = RunManifest("h", "v", str(tmp_path))
    record = StageRecord(manifest, "solve")
    assert not record.check("a", math.inf, "<", 1.0)
    assert not record.check("b", -math.inf, "finite")
    assert record.check("c", 2.0, "<=", math.inf)
    assert not record.check("d", math.nan, ">=", 0.0)
    assert manifest.failed
    manifest.write(tmp_path / "manifest.json")
    written = json.loads((tmp_path / "manifest.json").read_text(),
                         parse_constant=reject_constant)
    assert [(c["value"], c["threshold"], c["status"]) for c in written["checks"]] == [
        ("inf", 1.0, "fail"), ("-inf", None, "fail"), (2.0, "inf", "pass"),
        ("nan", 0.0, "fail")]


def test_non_finite_figures_written_as_strings(tiny_config, monkeypatch):
    """A stage's figures land in its manifest entry, a non-finite one as a
    string, and an int stays an int."""
    from lagflow import pipeline
    monkeypatch.setitem(pipeline._STAGES, "solve", lambda cfg, out, record, ctx: record.figure(
        k=3, bound=np.float64(2.5), up=math.inf, down=-math.inf, unknown=math.nan))
    cfg_path, out = tiny_config
    assert main(["solve", str(cfg_path), "--quiet"]) == 0
    written = json.loads((out / "manifest.json").read_text(), parse_constant=reject_constant)
    assert written["stages"][0]["figures"] == {"k": 3, "bound": 2.5, "up": "inf",
                                               "down": "-inf", "unknown": "nan"}


def test_weights_figures_in_manifest_not_csv(tmp_path):
    """At n = 32 the weights entry reports the spectral crop (its mode cube
    and tail bound) and the r = 8 layer-cake bracket width; the other
    stages but the probe report none, and weights.csv keeps its three rows."""
    out = tmp_path / "out"
    cfg = tmp_path / "n32.cfg"
    cfg.write_text(TINY.replace("solver.n = 16", "solver.n = 32").format(out=out))
    assert main(["paper-check", str(cfg), "--quiet"]) == 0
    stages = json.loads((out / "manifest.json").read_text(),
                        parse_constant=reject_constant)["stages"]
    figures = {s["name"]: s["figures"] for s in stages}
    weights = figures.pop("weights")
    assert sorted(weights) == ["spectral_crop_modes", "spectral_tail_bound",
                               "stein_bracket_width_r8"]
    assert isinstance(weights["spectral_crop_modes"], int)
    assert 0 <= weights["spectral_crop_modes"] < 16
    assert 0.0 <= weights["spectral_tail_bound"] < 1e-14
    assert 0.0 < weights["stein_bracket_width_r8"] < 1.0
    figures.pop("probe")        # test_probe_picard_figures_in_manifest_not_csv
    assert all(f == {} for f in figures.values())
    with open(out / "weights.csv", newline="") as f:
        assert [row[0] for row in csv.reader(f)] == ["quantity", "fitted_c",
                                                    "violation_fraction", "worst_ratio"]


def test_probe_picard_figures_in_manifest_not_csv(tiny_config):
    """The probe entry reports the largest Picard iteration count and last
    residual over the probes, which stop at round-off before the cap of 10,
    and over the negative control, whose Picard candidates never converge;
    probe.csv keeps its columns."""
    cfg_path, out = tiny_config
    assert main(["probe-uniqueness", str(cfg_path), "--quiet"]) == 0
    stages = json.loads((out / "manifest.json").read_text(),
                        parse_constant=reject_constant)["stages"]
    probe = {s["name"]: s["figures"] for s in stages}["probe"]
    assert sorted(probe) == ["control_picard_max_iterations", "control_picard_max_residual",
                             "picard_max_iterations", "picard_max_residual"]
    assert isinstance(probe["picard_max_iterations"], int)
    assert 1 <= probe["picard_max_iterations"] < 10
    assert 0.0 <= probe["picard_max_residual"] < 1e-14
    assert probe["control_picard_max_iterations"] == 10
    assert probe["control_picard_max_residual"] > 0.1
    with open(out / "probe.csv", newline="") as f:
        assert next(csv.reader(f)) == ["probe", "dt", "branching_fraction"]


def test_negative_control_that_stops_branching_fails_run(tiny_config, monkeypatch, capsys):
    """A control drift under which trajectories stay unique must fail the
    run: exit 2 and overall FAIL."""
    from lagflow import flow, uniqueness
    monkeypatch.setattr(uniqueness, "negative_control_drift",
                        lambda grid: flow.CallableDrift(lambda t, pts: np.zeros_like(pts), grid))
    cfg_path, out = tiny_config
    assert main(["probe-uniqueness", str(cfg_path)]) == 2
    assert capsys.readouterr().out.rstrip().endswith("overall: FAIL")
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    control = [c for c in checks if c["name"] == "negative_control_branching"]
    assert [(c["value"], c["status"]) for c in control] == [(0.0, "expected-fail: fail")]


def test_failing_stage_leaves_partial_manifest(tiny_config, monkeypatch):
    """A stage that raises after writing an artifact is recorded with its
    error, its time and that artifact's sha256; no later stage runs, the
    manifest is marked incomplete and the CLI exits 1."""
    from lagflow import weights

    def broken(*args, **kwargs):
        raise RuntimeError("verification broke")

    monkeypatch.setattr(weights, "verify_asymmetric", broken)
    cfg_path, out = tiny_config
    assert main(["paper-check", str(cfg_path), "--quiet"]) == 1
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=reject_constant)
    assert not manifest["complete"]
    assert [s["name"] for s in manifest["stages"]] == ["solve", "norms", "weights"]
    entry = manifest["stages"][-1]
    assert entry["error"] == "RuntimeError: verification broke"
    assert entry["seconds"] > 0
    lgs1 = out / "weight.lgs1"
    assert entry["artifacts"] == [
        {"path": str(lgs1), "sha256": hashlib.sha256(lgs1.read_bytes()).hexdigest()}]
    assert all("error" not in s for s in manifest["stages"][:-1])


def cli_env(threads):
    """The environment of a CLI subprocess under LAGFLOW_THREADS=threads,
    with the native thread variables left for it to fill."""
    src = str(Path(lagflow.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["LAGFLOW_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_under_thread_counts(tmp_path, command, config):
    """Run the CLI `command` on config under LAGFLOW_THREADS=1 and 2, each
    in a fresh process; returns the two output directories."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        p = tmp_path / f"t{threads}.cfg"
        p.write_text(config.format(out=out))
        proc = subprocess.run([sys.executable, "-m", "lagflow.cli", command, str(p), "--quiet"],
                              env=cli_env(threads), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    return outs


def assert_same_artifacts(outs, names):
    """Every artifact but the manifest (which holds timings) is in names and
    has the same bytes in both output directories."""
    assert sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json") == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_solve_bytes_independent_of_thread_count(tmp_path):
    """The solve artifacts are byte-identical under LAGFLOW_THREADS=1 and 2."""
    outs = run_under_thread_counts(tmp_path, "solve", TINY)
    assert_same_artifacts(outs, ["diagnostics.csv", "field_final.lgf1", "field_initial.lgf1"])


def test_weights_bytes_independent_of_thread_count(tmp_path):
    """Every weights artifact is byte-identical under LAGFLOW_THREADS=1 and
    2, at n = 32, where the r = 4 and r = 8 balls take 2 and 9 Stein slabs."""
    outs = run_under_thread_counts(tmp_path, "weights", TINY.replace("solver.n = 16",
                                                                    "solver.n = 32"))
    assert_same_artifacts(outs, ["diagnostics.csv", "field_final.lgf1", "field_initial.lgf1",
                                 "weight.lgs1", "weights.csv"])


def test_stage_error_is_not_masked_by_unwritten_artifact(tiny_config, monkeypatch, capsys):
    """A writer that raises before opening its file registers no artifact:
    the CLI reports the writer's own error and exits 1, and the manifest's
    weights entry carries that error and does not hash a stale weight.lgs1
    left by an earlier run."""
    from lagflow import io

    write_scalar = io.write_scalar
    monkeypatch.setattr(io, "write_scalar",
                        lambda path, grid, values, *args: write_scalar(path, grid, values[1:],
                                                                       *args))
    cfg_path, out = tiny_config
    out.mkdir()
    (out / "weight.lgs1").write_bytes(b"stale")
    assert main(["weights", str(cfg_path), "--quiet"]) == 1
    assert "error: ValueError: scalar shape (15, 16, 16) != (16,16,16)" in capsys.readouterr().err
    entry = json.loads((out / "manifest.json").read_text())["stages"][-1]
    assert entry["name"] == "weights"
    assert entry["error"] == "ValueError: scalar shape (15, 16, 16) != (16,16,16)"
    assert entry["artifacts"] == []


# ---------------------------------------------------------------------------
# stage scheduling: under LAGFLOW_THREADS >= 2, paper-check runs its
# independent leaf stages in forked workers

ARTIFACTS = sorted(["diagnostics.csv", "field_final.lgf1", "field_initial.lgf1", "flow.csv",
                    "norms.csv", "picard.csv", "probe.csv", "trajectories.lgt1",
                    "weight.lgs1", "weights.csv"])


def in_stage_order(names):
    return list(names) == sorted(names, key=STAGE_ORDER.index)


def test_paper_check_same_under_one_and_two_stage_workers(tmp_path):
    """Every paper-check artifact is byte-identical under LAGFLOW_THREADS=1
    and 2, as are the manifest's checks and figures, and the stages and
    checks are listed in STAGE_ORDER."""
    outs = run_under_thread_counts(tmp_path, "paper-check", TINY)
    assert_same_artifacts(outs, ARTIFACTS)
    manifests = [json.loads((out / "manifest.json").read_text(),
                            parse_constant=reject_constant) for out in outs]
    for m in manifests:
        assert m["complete"]
        assert [s["name"] for s in m["stages"]] == list(STAGE_ORDER)
        assert in_stage_order([c["stage"] for c in m["checks"]])
    one, two = manifests
    assert one["checks"] == two["checks"]
    assert [s["figures"] for s in one["stages"]] == [s["figures"] for s in two["stages"]]
    assert ([[a["sha256"] for a in s["artifacts"]] for s in one["stages"]]
            == [[a["sha256"] for a in s["artifacts"]] for s in two["stages"]])


def cap_stages(monkeypatch, threads):
    """LAGFLOW_THREADS for an in-process main(), with the native thread
    variables it fills restored afterwards."""
    for var in ("LAGFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, threads)


def log_stage_pids(monkeypatch, log):
    """Have every stage append 'name pid' to log as it starts."""
    from lagflow import pipeline

    def logged(name, fn):
        def stage(*args):
            with open(log, "a") as f:
                f.write(f"{name} {os.getpid()}\n")
            return fn(*args)
        return stage

    for name, fn in list(pipeline._STAGES.items()):
        monkeypatch.setitem(pipeline._STAGES, name, logged(name, fn))


def worker_batches(log):
    """The stages each worker ran, in order, for the stages not run here."""
    batches = {}
    for line in log.read_text().splitlines():
        name, pid = line.split()
        if int(pid) != os.getpid():
            batches.setdefault(pid, []).append(name)
    return sorted(batches.values())


def assert_workers_reaped(log):
    """Every process that ran a stage, other than this one, has been reaped:
    it is no longer a child of this process (other tests may keep their own)."""
    for line in log.read_text().splitlines():
        pid = int(line.split()[1])
        if pid != os.getpid():
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("command, threads, batches", [
    ("paper-check", "1", []),
    ("paper-check", "2", [["picard", "probe"]]),
    ("paper-check", "3", [["picard"], ["probe"]]),
    ("solve", "2", []),
    ("verify-norms", "2", []),
    ("weights", "2", []),
    ("advect", "2", []),
    ("picard", "2", []),
    ("probe-uniqueness", "2", []),
])
def test_workers_run_only_independent_leaves(tiny_config, tmp_path, monkeypatch,
                                             command, threads, batches):
    """Only paper-check forks: its leaves that are ready beside the stage run
    here (picard and probe, after solve) go to at most threads - 1 workers;
    norms, weights and advect run here.  Every single-chain subcommand runs
    inline, and no worker outlives the run."""
    cap_stages(monkeypatch, threads)
    log = tmp_path / "pids.log"
    log_stage_pids(monkeypatch, log)
    cfg_path, out = tiny_config
    assert main([command, str(cfg_path), "--quiet"]) == 0
    assert_workers_reaped(log)
    assert worker_batches(log) == batches
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["complete"]
    assert in_stage_order([s["name"] for s in manifest["stages"]])


def test_without_fork_stages_run_inline(tiny_config, tmp_path, monkeypatch):
    cap_stages(monkeypatch, "2")
    monkeypatch.delattr(os, "fork")
    log = tmp_path / "pids.log"
    log_stage_pids(monkeypatch, log)
    cfg_path, out = tiny_config
    assert main(["paper-check", str(cfg_path), "--quiet"]) == 0
    assert worker_batches(log) == []
    assert len(log.read_text().splitlines()) == len(STAGE_ORDER)


def failing_runs(tmp_path, monkeypatch, capsys, command="paper-check"):
    """Run `command` on TINY under LAGFLOW_THREADS=1 and 2 (the caller has
    broken a stage); returns, per cap, (exit code, stderr, manifest, output
    directory, worker batches)."""
    runs = {}
    for threads in ("1", "2"):
        with monkeypatch.context() as m:
            cap_stages(m, threads)
            log = tmp_path / f"pids{threads}.log"
            log_stage_pids(m, log)
            out = tmp_path / f"t{threads}"
            cfg = tmp_path / f"t{threads}.cfg"
            cfg.write_text(TINY.format(out=out))
            out.mkdir()
            (out / "probe.csv").write_bytes(b"stale")
            code = main([command, str(cfg), "--quiet"])
            assert_workers_reaped(log)
            manifest = json.loads((out / "manifest.json").read_text(),
                                  parse_constant=reject_constant)
            runs[threads] = (code, capsys.readouterr().err, manifest, out, worker_batches(log))
    return runs


def entry_of(manifest, name):
    return {k: v for k, v in next(s for s in manifest["stages"] if s["name"] == name).items()
            if k != "seconds"}


def test_failing_worker_stage_leaves_partial_manifest(tmp_path, monkeypatch, capsys):
    """A stage that raises in a worker after writing an artifact is recorded
    as it is inline: the same entry (error, artifact sha256, figures), the
    checks it made, no later stage of its batch, an incomplete manifest and
    exit 1 with the stage's own error."""
    from lagflow import pipeline

    def broken(xs):
        raise RuntimeError("rise broke")

    # picard's last check: after picard.csv is written; the probe's first
    monkeypatch.setattr(pipeline, "_largest_rise", broken)
    runs = failing_runs(tmp_path, monkeypatch, capsys)
    entries = []
    for threads, (code, err, manifest, out, batches) in runs.items():
        assert batches == ([] if threads == "1" else [["picard"]])
        assert code == 1
        assert "error: RuntimeError: rise broke" in err
        assert not manifest["complete"]
        names = [s["name"] for s in manifest["stages"]]
        assert in_stage_order(names) and "picard" in names and "probe" not in names
        assert all("error" not in s for s in manifest["stages"] if s["name"] != "picard")
        entry = entry_of(manifest, "picard")
        csv_path = out / "picard.csv"
        assert entry["error"] == "RuntimeError: rise broke"
        assert entry["artifacts"] == [{"path": str(csv_path), "sha256": hashlib.sha256(
            csv_path.read_bytes()).hexdigest()}]
        entries.append({**entry, "artifacts": [a["sha256"] for a in entry["artifacts"]]})
        assert [c["name"] for c in manifest["checks"] if c["stage"] == "picard"] == [
            "fast_convergence_fraction", "z0_gap_bound"]
    assert entries[0] == entries[1]


def test_worker_stage_error_is_not_masked_by_unwritten_artifact(tmp_path, monkeypatch,
                                                                capsys):
    """A writer that raises in a worker before opening its file registers no
    artifact and leaves a stale probe.csv unhashed; the CLI reports the
    writer's own error and exits 1, as inline."""
    from lagflow import io

    write_report_csv = io.write_report_csv

    def refuse_probe(path, *args):
        if Path(path).name == "probe.csv":
            raise ValueError("probe rows refused")
        return write_report_csv(path, *args)

    monkeypatch.setattr(io, "write_report_csv", refuse_probe)
    runs = failing_runs(tmp_path, monkeypatch, capsys)
    entries = []
    for threads, (code, err, manifest, out, batches) in runs.items():
        assert batches == ([] if threads == "1" else [["picard", "probe"]])
        assert code == 1
        assert "error: ValueError: probe rows refused" in err
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_ORDER)
        entry = entry_of(manifest, "probe")
        assert entry["error"] == "ValueError: probe rows refused"
        assert entry["artifacts"] == []
        assert (out / "probe.csv").read_bytes() == b"stale"
        entries.append(entry)
    assert entries[0] == entries[1]


def test_failed_check_in_worker_fails_run(tiny_config, tmp_path, monkeypatch, capsys):
    """A check that fails in a worker (the negative control, in the probe)
    fails the run as inline: exit 2, overall FAIL, the verdict recorded."""
    from lagflow import flow, uniqueness
    cap_stages(monkeypatch, "2")
    monkeypatch.setattr(uniqueness, "negative_control_drift",
                        lambda grid: flow.CallableDrift(lambda t, pts: np.zeros_like(pts), grid))
    log = tmp_path / "pids.log"
    log_stage_pids(monkeypatch, log)
    cfg_path, out = tiny_config
    assert main(["paper-check", str(cfg_path)]) == 2
    assert_workers_reaped(log)
    assert worker_batches(log) == [["picard", "probe"]]
    assert capsys.readouterr().out.rstrip().endswith("overall: FAIL")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["complete"]
    assert [(c["name"], c["status"]) for c in manifest["checks"]
            if c["status"] not in ("pass", "expected-fail: pass")] == [
        ("negative_control_branching", "expected-fail: fail")]


def test_worker_that_dies_is_recorded(tiny_config, tmp_path, monkeypatch, capsys):
    """A worker that exits without reporting is an error of the stage it ran;
    the run exits 1 and the manifest is incomplete."""
    from lagflow import pipeline
    cap_stages(monkeypatch, "2")
    monkeypatch.setitem(pipeline._STAGES, "probe", lambda *args: os._exit(3))
    log = tmp_path / "pids.log"
    log_stage_pids(monkeypatch, log)
    cfg_path, out = tiny_config
    assert main(["paper-check", str(cfg_path), "--quiet"]) == 1
    assert_workers_reaped(log)
    assert worker_batches(log) == [["picard", "probe"]]
    message = "RuntimeError: worker for stage probe exited with status 3 before reporting"
    assert f"error: {message}" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["complete"]
    assert [s["name"] for s in manifest["stages"]] == list(STAGE_ORDER)
    assert entry_of(manifest, "probe") == {"name": "probe", "error": message,
                                           "artifacts": [], "figures": {}}
    assert all("error" not in s for s in manifest["stages"][:-1])


def cli_script(tmp_path, body):
    """A python -c program: `body` (which may patch lagflow) before the CLI's
    main runs paper-check on TINY in a try whose finally prints 'finally',
    with an atexit handler that prints 'atexit'."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY.format(out=tmp_path / "out"))
    return ("import atexit, os, sys, time\n"
            "import lagflow.cli, lagflow.pipeline\n"
            "atexit.register(lambda: print('atexit', flush=True))\n"
            f"{body}\n"
            "try:\n"
            f"    code = lagflow.cli.main(['paper-check', {str(cfg)!r}, '--quiet'])\n"
            "finally:\n"
            "    print('finally', flush=True)\n"
            "sys.exit(code)\n")


def test_finally_and_atexit_run_once_with_workers(tmp_path):
    """Workers end with os._exit: a finally around main and an atexit
    handler run once, in the CLI's process, under LAGFLOW_THREADS=2."""
    proc = subprocess.run([sys.executable, "-c", cli_script(tmp_path, "")],
                          env=cli_env("2"), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["finally", "atexit"]


def live(pid) -> bool:
    """pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_killed_cli_leaves_no_worker(tmp_path):
    """A worker dies with its CLI: the kernel SIGKILLs it (PR_SET_PDEATHSIG)."""
    marker = tmp_path / "worker.pid"
    body = ("def hang(*args):\n"
            f"    open({str(marker)!r}, 'w').write(str(os.getpid()))\n"
            "    time.sleep(120)\n"
            "lagflow.pipeline._STAGES['probe'] = hang\n")
    proc = subprocess.Popen([sys.executable, "-c", cli_script(tmp_path, body)],
                            env=cli_env("2"), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not (marker.exists() and marker.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        worker = int(marker.read_text())
        assert worker != proc.pid and live(worker)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    while live(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not live(worker)
