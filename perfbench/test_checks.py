"""The benchmark's own tests: every output check passes on a real (small) CLI
run and fails on a copy of its artifacts corrupted in the way it guards
against.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
from artifacts import GRID_HEADER, TRAJ_HEADER

ROOT = Path(__file__).resolve().parents[1]
SEED = 5
CTX = {"seed": SEED, "amplitude": 1.0, "box_len": 1.0}
# t_end stays 1: the negative control needs time to reach its branching plane
TINY = {"solver.n": 8, "solver.t_end": 1.0, "flow.m": 4, "picard.m": 4, "probe.m": 2,
        "probe.halvings": 1, "probe.seeds": "0", "probe.epsilons": "0.2",
        "weights.pair_count": 2000}


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    work = tmp_path_factory.mktemp("genuine")
    wl = run.Workload("paper-check", TINY, run.ALL_STAGES)
    cfg = work / "tiny.cfg"
    run.write_config(cfg, wl, SEED, work / "out")
    proc = subprocess.run([sys.executable, "-m", "lagflow.cli", "paper-check", str(cfg),
                           "--quiet"], env=run.child_env(ROOT, 1), capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return work / "out"


@pytest.fixture
def out(genuine, tmp_path):
    return Path(shutil.copytree(genuine, tmp_path / "out"))


def results(out_dir) -> dict:
    return {r.name: r for r in checks.run_checks(out_dir, run.ALL_STAGES, CTX)}


def grid_payload(path, components: int):
    """Writable view of an LGF1/LGS1 payload, indexed [c, iz, iy, ix]."""
    n = GRID_HEADER.unpack_from(Path(path).read_bytes())[2]
    return np.memmap(path, dtype="<f8", mode="r+", offset=GRID_HEADER.size,
                     shape=(components, n, n, n))


def traj_payload(path):
    """Writable view of an LGT1 position block, shape (S, P, 3)."""
    _m, _v, P, S, _L, _T = TRAJ_HEADER.unpack_from(Path(path).read_bytes())
    return np.memmap(path, dtype="<f8", mode="r+", offset=TRAJ_HEADER.size + 8 * S,
                     shape=(S, P, 3))


def edit_csv(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def scale_field(out):
    grid_payload(out / "field_final.lgf1", 3)[:] *= 1.01


def add_gradient_field(out):
    u = grid_payload(out / "field_final.lgf1", 3)
    n = u.shape[-1]
    u[0] += 0.1 * np.sin(2 * np.pi * np.arange(n) / n)   # u_x(x): div u != 0


def raise_energy(out):
    def edit(rows):
        rows[3][1] = repr(float(rows[2][1]) * 1.5)
    edit_csv(out / "diagnostics.csv", edit)


def inflate_enstrophy(out):
    def edit(rows):
        for row in rows[2:]:
            row[2] = repr(float(row[2]) * 1.05)
    edit_csv(out / "diagnostics.csv", edit)


def perturb_initial_fl1(out):
    def edit(rows):
        rows[1][5] = repr(float(rows[1][5]) * (1 + 1e-6))
    edit_csv(out / "diagnostics.csv", edit)


def lower_weight_at_one_node(out):
    u, box_len, _t, _nu = checks.RunOutputs(out).field_final
    floor = checks._fitted_c(checks.RunOutputs(out)) * checks.grad_magnitude(u, box_len)
    ix, iy, iz = np.unravel_index(np.argmax(floor), floor.shape)
    grid_payload(out / "weight.lgs1", 1)[0, iz, iy, ix] = 0.5 * floor[ix, iy, iz]


def drop_one_maximal_function(out):
    """h = c |grad b| everywhere: what c times either maximal function alone
    gives where |grad b| peaks, as if the other term were lost."""
    u, box_len, _t, _nu = checks.RunOutputs(out).field_final
    c_grad = checks._fitted_c(checks.RunOutputs(out)) * checks.grad_magnitude(u, box_len)
    grid_payload(out / "weight.lgs1", 1)[0] = c_grad.transpose(2, 1, 0)


def shrink_weight(out):
    grid_payload(out / "weight.lgs1", 1)[:] *= 1e-6


def shift_start(out):
    traj_payload(out / "trajectories.lgt1")[0, 0, 0] += 0.01


def jump_trajectory(out):
    box_len = checks.RunOutputs(out).trajectories[2]
    traj_payload(out / "trajectories.lgt1")[-1, 3, 1] += 0.5 * box_len


def fail_negative_control(out):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    for c in manifest["checks"]:
        if c["name"] == "negative_control_branching":
            c["status"] = "expected-fail: fail"
    path.write_text(json.dumps(manifest))


def coarsen_branching(out):
    def edit(rows):
        det = sorted((r for r in rows[1:] if r[0] == "deterministic"),
                     key=lambda r: float(r[1]))
        det[0][2], det[-1][2] = "0.5", "0.0"
    edit_csv(out / "probe.csv", edit)


CORRUPTIONS = {
    "parseval": scale_field,
    "solenoidal": add_gradient_field,
    "energy_monotone": raise_energy,
    "energy_balance": inflate_enstrophy,
    "taylor_green_t0": perturb_initial_fl1,
    "weight_domination": lower_weight_at_one_node,
    "fresh_pairs": shrink_weight,
    "lattice_start": shift_start,
    "speed_bound": jump_trajectory,
    "negative_control": fail_negative_control,
    "branching_refines": coarsen_branching,
}


def test_every_check_has_a_corruption():
    assert set(CORRUPTIONS) == {name for name, _stage, _fn in checks.CHECKS}


def test_genuine_run_passes_every_check(genuine):
    res = results(genuine)
    assert set(res) == set(CORRUPTIONS)
    assert all(r.passed for r in res.values()), [r for r in res.values() if not r.passed]


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails_its_check(out, name):
    CORRUPTIONS[name](out)
    assert not results(out)[name].passed


def test_missing_artifact_fails_not_raises(out):
    (out / "weight.lgs1").write_bytes(b"LGS1\x01\x00")
    res = results(out)
    assert not res["weight_domination"].passed and "truncated" in res["weight_domination"].error


def test_weight_missing_one_maximal_function_fails(out):
    drop_one_maximal_function(out)
    assert not results(out)["weight_domination"].passed


def test_changed_csv_breaks_determinism(out, genuine):
    edit_csv(out / "weights.csv", lambda rows: rows[1].__setitem__(1, "1.0"))
    assert checks.csv_digests(out) != checks.csv_digests(genuine)


def test_self_time_excludes_children(tmp_path):
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda: sum(range(20000)))
    outer = t.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    path = tmp_path / "t.npz"
    t.save(path, warning_counts={})
    s = tracer.summarize(path)["by_name"]
    assert s["m.inner"]["calls"] == 3 and s["m.outer"]["calls"] == 1
    assert s["m.outer"]["self_s"] == pytest.approx(
        s["m.outer"]["total_s"] - s["m.inner"]["total_s"], abs=1e-12)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload",
                           "solve-n64", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
