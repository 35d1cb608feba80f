"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single verdict line

    acceptance NN PASS|FAIL  <what was measured>

so a full run yields one line per criterion.  Expensive solver and particle
runs are shared across criteria through session-scoped fixtures, and
independent solver runs are spread over two worker processes; the whole
suite is deterministic (fixed seeds everywhere).
"""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lagflow.cli import main as cli_main
from lagflow.fields import (
    Grid3,
    evaluate,
    l2_norm,
    to_real,
    to_spectral,
)
from lagflow.flow import (
    CallableDrift,
    FieldDrift,
    compressibility_constant,
    integrate_flow,
    lattice_positions,
    sup_gap,
)
from lagflow.forcing import zero_path
from lagflow.io import (
    read_field,
    read_trajectories,
    write_field,
)
from lagflow.lorentz import (
    check_lorentz_interpolation,
    check_refined_inequality,
    interpolation_constant,
)
from lagflow.picard import bad_set_measure, picard_iterate, slopes_per_point
from lagflow.solver import (
    SolverConfig,
    check_energy_inequality,
    check_fgt_bound,
    make_initial_data,
    run,
)
from lagflow.uniqueness import (
    ae_uniqueness_probe,
    negative_control_drift,
    refinement_sweep,
    sde_uniqueness_probe,
)
from lagflow import weights as W
from estimates import mollify, spectral_upsample, stability_gap, survival_tail_slope
from oracles import check_flow_lipschitz, flow_weight, write_trajectories

NU_SET = (0.02, 0.05, 0.1)


def verdict(num, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def non_increasing(seq, slack=1e-12):
    return all(b <= a + slack for a, b in zip(seq, seq[1:]))


def final_and_records(u0, cfg):
    """(final state, diagnostics records) of one solver run."""
    records = []
    for final, record in run(u0, cfg):
        records.append(record)
    return final, records


def run_all(jobs):
    """final_and_records for [(u0, cfg), ...], in order.  The runs are
    independent, so two worker processes share them; each returns the same
    floats as an in-process run."""
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        return list(pool.map(final_and_records, *zip(*jobs)))


# ---------------------------------------------------------------------------
# shared expensive artifacts

@pytest.fixture(scope="session")
def ns_runs():
    """Taylor-Green runs at n in {32, 64} for each viscosity; T=1, dt=0.01."""
    keys, jobs = [], []
    for n in (32, 64):
        grid = Grid3(n, 1.0)
        u0 = make_initial_data("taylor_green", grid, {"amplitude": 1.0})
        for nu in NU_SET:
            keys.append((n, nu))
            jobs.append((u0, SolverConfig(grid, nu=nu, dt=0.01, t_end=1.0)))
    return {key: (l2_norm(u0) ** 2, final, diags)
            for key, (u0, _), (final, diags) in zip(keys, jobs, run_all(jobs))}


@pytest.fixture(scope="session")
def u32(ns_runs):
    return ns_runs[(32, 0.05)][1]


@pytest.fixture(scope="session")
def u64(ns_runs):
    return ns_runs[(64, 0.05)][1]


@pytest.fixture(scope="session")
def ev32(u32):
    return evaluate(u32)


@pytest.fixture(scope="session")
def ev64(u64):
    return evaluate(u64)


@pytest.fixture(scope="session")
def drift32(u32):
    return FieldDrift([(0.0, u32)])


@pytest.fixture(scope="session")
def flow_ens(drift32):
    """Lattice flows under the n=32 final-time field, rk4 at dt=0.02."""
    return {m: integrate_flow(drift32, zero_path(1.0, 0.02),
                              lattice_positions(m, 1.0), 1.0, "rk4", 0.02, m=m)
            for m in (16, 32, 64)}


@pytest.fixture(scope="session")
def weight32(ev32):
    h, c = W.asymmetric_weight(ev32, pair_count=50_000, seed=10)
    return h, c


@pytest.fixture(scope="session")
def weight64(ev64):
    h, c = W.asymmetric_weight(ev64, pair_count=50_000, seed=10)
    return h, c


# ---------------------------------------------------------------------------
# criteria

def test_01_energy_inequality(ns_runs):
    worst = max(check_energy_inequality(diags, tol=1e-3) for _, _, diags in ns_runs.values())
    verdict(1, worst <= 0.0, f"energy inequality on all (n, nu) runs; "
            f"worst relative margin {worst:.3e} <= 0")


# (kind, params, seed, T): ten members with ||u0||_L2 spanning [0.5, 4].
# Large-norm members use low-wavenumber random data, where the time-integrated
# H^2 budget tracks (1+||u0||^2) much more tightly than for single-mode data.
FGT_FAMILY = (
    ("taylor_green", {"amplitude": 1.0}, 0, 4.0),
    ("taylor_green", {"amplitude": 1.5}, 0, 4.0),
    ("taylor_green", {"amplitude": 2.0}, 0, 4.0),
    ("taylor_green", {"amplitude": 2.5}, 0, 4.0),
    ("taylor_green", {"amplitude": 3.0}, 0, 4.0),
    ("taylor_green", {"amplitude": 4.0}, 0, 1.0),
    ("random_band", {"energy": 6.25, "k_band": 2}, 4, 1.0),
    ("random_band", {"energy": 9.0, "k_band": 2}, 3, 1.0),
    ("random_band", {"energy": 12.25, "k_band": 2}, 2, 1.0),
    ("random_band", {"energy": 16.0, "k_band": 1}, 1, 1.0),
)


def test_02_fgt_budget_family(ns_runs):
    grid = Grid3(32, 1.0)
    jobs = [(make_initial_data(kind, grid, dict(params), seed=seed),
             SolverConfig(grid, nu=0.05, dt=0.01, t_end=T))
            for kind, params, seed, T in FGT_FAMILY]
    energies = [l2_norm(u0) ** 2 for u0, _ in jobs]
    norms = [math.sqrt(energy) for energy in energies]
    ratios = [check_fgt_bound(diags, energy, cfg.t_end)
              for (_, diags), energy, (_, cfg) in zip(run_all(jobs), energies, jobs)]
    assert min(norms) == pytest.approx(0.5) and max(norms) == pytest.approx(4.0)
    spread = max(ratios) / min(ratios)

    e32, _, d32 = ns_runs[(32, 0.05)]
    e64, _, d64 = ns_runs[(64, 0.05)]
    r32 = check_fgt_bound(d32, e32, 1.0)
    r64 = check_fgt_bound(d64, e64, 1.0)
    ok = spread < 2.0 and r64 <= r32 * 1.05
    verdict(2, ok, f"H2-budget ratio spread {spread:.3f}x < 2 over 10 members; "
            f"resolution 32->64 ratio {r32:.4f}->{r64:.4f} (no growth)")


def test_03_lorentz_interpolation_constant():
    grid = Grid3(16, 1.0)
    vol = grid.cell_volume
    C = interpolation_constant(2.0, 6.0, 0.5)
    assert C == pytest.approx(54.0)
    worst = 0.0
    ok = True
    for seed in range(200):
        f = make_initial_data("random_band", grid, {"energy": 1.0, "k_band": 5},
                              seed=seed)
        rep = check_lorentz_interpolation(evaluate(f).speed, vol, 2.0, 6.0, 0.5)
        worst = max(worst, rep.ratio)
        ok = ok and rep.ratio <= 1.0 + 1e-9
    # indicators: the bound is an identity up to the constant
    id_err = 0.0
    for count in (1, 7, 64, 911, 2048):
        v = np.zeros(grid.n ** 3)
        v[:count] = 1.0
        rep = check_lorentz_interpolation(v, vol, 2.0, 6.0, 0.5)
        id_err = max(id_err, abs(rep.ratio - 1.0 / C))
        ok = ok and rep.ratio <= 1.0 + 1e-9
    ok = ok and id_err <= 1e-10
    verdict(3, ok, f"interpolation ratio <= 1 on 200 random + indicator fields "
            f"(max {worst:.4f}); indicator identity error {id_err:.2e} <= 1e-10")


def test_04_refined_inequality_stability():
    grid = Grid3(32, 1.0)
    r32, r64 = [], []
    for seed in range(40):
        f = make_initial_data("random_band", grid,
                              {"energy": 0.5 + 0.1 * seed, "k_band": 8}, seed=seed)
        r32.append(check_refined_inequality(evaluate(f)).ratio)
        r64.append(check_refined_inequality(evaluate(spectral_upsample(f, 64))).ratio)
    change = abs(max(r64) - max(r32)) / max(r32)

    f = make_initial_data("shear", grid, {"amplitude": 1.0})
    g = make_initial_data("shear", grid, {"amplitude": 100.0})
    amp_err = abs(check_refined_inequality(evaluate(f)).ratio
                  / check_refined_inequality(evaluate(g)).ratio - 1.0)
    ok = change < 0.10 and amp_err <= 1e-10
    verdict(4, ok, f"refined-inequality max ratio changes {100 * change:.3f}% "
            f"over n 32->64 (< 10%); amplitude invariance error {amp_err:.2e}")


def test_05_flow_incompressibility(flow_ens):
    lhat = {m: compressibility_constant(e) for m, e in flow_ens.items()}
    ctrl = CallableDrift(lambda t, pts: -(pts - 0.5), Grid3(32, 1.0))
    ens = integrate_flow(ctrl, zero_path(1.0, 0.02), lattice_positions(32, 1.0),
                         1.0, "rk4", 0.02, m=32)
    lhat_ctrl = compressibility_constant(ens)
    ok = (lhat[64] <= 1.2 and non_increasing([lhat[16], lhat[32], lhat[64]])
          and lhat_ctrl > 1.5)
    verdict(5, ok, f"occupancy ratio {lhat[16]:.3f}/{lhat[32]:.3f}/{lhat[64]:.3f} "
            f"at m=16/32/64 (<= 1.2, non-increasing); "
            f"compressible control {lhat_ctrl:.1f} > 1.5")


MOLL_SWEEP = (2.0, 4.0, 8.0, 16.0)


def _stability_sweep(u):
    base = FieldDrift([(0.0, u)])
    pos = lattice_positions(12, 1.0)
    zp = zero_path(1.0, 0.02)
    reports = [stability_gap(FieldDrift([(0.0, mollify(u, nm))]), zp, base, zp,
                             pos, 1.0, lam=1.0, p=2.0, dt=0.02)
               for nm in MOLL_SWEEP]
    return base, pos, zp, reports


def test_06_flow_stability_estimate(u32, u64):
    base, pos, zp, reps32 = _stability_sweep(u32)
    lhs = [r.lhs for r in reps32]
    fit32 = max(r.lhs / r.rhs_opt for r in reps32)
    _, _, _, reps64 = _stability_sweep(u64)
    fit64 = max(r.lhs / r.rhs_opt for r in reps64)
    bound_ok = all(r.lhs <= fit32 * r.rhs_opt * (1 + 1e-12) for r in reps32)
    stable = 0.5 <= fit64 / fit32 <= 2.0

    # p-th-moment (p = 2) sup-in-time gaps of the mollified flows to the limit flow
    ref = integrate_flow(base, zp, pos, 1.0, "rk4", 0.02)
    gaps = []
    for nm in MOLL_SWEEP:
        en = integrate_flow(FieldDrift([(0.0, mollify(u32, nm))]), zp, pos, 1.0, "rk4", 0.02)
        g = sup_gap(en.trajectories, ref.trajectories)
        gaps.append(float(np.mean(g ** 2.0) ** (1.0 / 2.0)))
    conv_ok = non_increasing(gaps) and gaps[-1] < 10 * 0.02
    ok = non_increasing(lhs) and bound_ok and stable and conv_ok
    verdict(6, ok, f"stability lhs decreasing over mollifier sweep; "
            f"lhs <= C*rhs_opt with C 32->64 ratio {fit64 / fit32:.3f} in [0.5,2]; "
            f"convergence gaps -> {gaps[-1]:.2e} < 10*dt")


def test_07_lusin_lipschitz_weights(ev32, ev64, weight32, weight64, flow_ens):
    h32, _ = weight32
    h64, _ = weight64
    p32 = W.verify_asymmetric(ev32, h32, 100_000, seed=11)["violation_fraction"]
    p64 = W.verify_asymmetric(ev64, h64, 100_000, seed=11)["violation_fraction"]

    flow_fracs = {}
    H64 = None
    for m, ens in flow_ens.items():
        H = flow_weight(h32, ens)
        flow_fracs[m] = check_flow_lipschitz(ens, H)["violation_fraction"]
        if m == 64:
            H64 = H
    tail = survival_tail_slope(H64.values)
    ok = (p32 < 1e-3 and p64 <= p32
          and flow_fracs[64] < 1e-2
          and non_increasing([flow_fracs[16], flow_fracs[32], flow_fracs[64]])
          and tail <= -2.5)
    verdict(7, ok, f"pointwise violations {p32:.1e}->{p64:.1e} (n 32->64); "
            f"flow violations {flow_fracs[16]:.1e}/{flow_fracs[32]:.1e}/"
            f"{flow_fracs[64]:.1e} (m 16/32/64); H_T tail slope {tail:.2f} <= -2.5")


def test_08_picard_convergence(drift32):
    lat = lattice_positions(32, 1.0)
    prun = picard_iterate(drift32, zero_path(1.0, 0.05), lat, 8, 0.05)
    slopes = slopes_per_point(prun)
    frac_fast = float(np.mean(slopes <= -0.8))
    z0_ok = bool(np.all(prun.gaps[0] <= prun.b_sup_integral + 1e-12))

    # bad-set decay needs a drift strong enough that gaps actually cross the
    # e^{-n/2} thresholds; use the t=0 snapshot at moderate amplitude and
    # check monotonicity where the n^{-3} tail bound is non-vacuous, i.e.
    # n >= the time-integrated L^{3,1} gradient budget (here 5.36 -> n >= 6).
    grid = Grid3(32, 1.0)
    b0 = FieldDrift([(0.0, make_initial_data("taylor_green", grid,
                                             {"amplitude": 0.8}))])
    rows = bad_set_measure(picard_iterate(b0, zero_path(1.0, 0.05), lat, 12, 0.05))
    fracs = np.array([r["fraction"] for r in rows])
    tail_ok = non_increasing(fracs[6:]) and fracs[6] > 0
    # log-log slope over the iterates n >= 1 with a fraction strictly in (0, 1)
    ns = np.arange(fracs.size, dtype=np.float64)
    fit = (ns > 0) & (fracs > 0) & (fracs < 1)
    slope = np.polyfit(np.log(ns[fit]), np.log(fracs[fit]), 1)[0] if fit.sum() >= 2 else math.nan
    ok = frac_fast >= 0.9 and z0_ok and tail_ok and slope < 0
    verdict(8, ok, f"log-gap slope <= -0.8 on {100 * frac_fast:.1f}% of 32^3 "
            f"lattice; Z0 bound everywhere: {z0_ok}; bad-set fractions "
            f"non-increasing with slope {slope:.2f} < 0")


def test_09_uniqueness_probes(drift32):
    lat = lattice_positions(4, 1.0)
    sweep = refinement_sweep(drift32, zero_path(1.0, 0.04), lat, 1.0, 0.04,
                             halvings=2)
    det = [p["branching_fraction"] for p in sweep]
    ok = non_increasing(det)

    brown = {}
    for eps in (0.05, 0.2):
        fr = [sde_uniqueness_probe(drift32, lat, 1.0, dt, eps, [0, 1])
              ["mean_branching_fraction"] for dt in (0.04, 0.02, 0.01)]
        brown[eps] = fr
        ok = ok and non_increasing(fr)

    rough = negative_control_drift(Grid3(32, 1.0))
    ctrl_min = math.inf
    for dt in (0.04, 0.02, 0.01):
        res = ae_uniqueness_probe(rough, zero_path(1.0, dt), lat, 1.0, dt)
        ctrl_min = min(ctrl_min, res["branching_fraction"])
        for eps in (0.05, 0.2):
            res = sde_uniqueness_probe(rough, lat, 1.0, dt, eps, [0, 1])
            ctrl_min = min(ctrl_min, res["mean_branching_fraction"])
    ok = ok and ctrl_min > 0.05
    verdict(9, ok, f"branching non-increasing under dt halvings "
            f"(deterministic {det}, eps=0.05 {brown[0.05]}, eps=0.2 {brown[0.2]}); "
            f"negative control min branching {ctrl_min:.3f} > 0.05")


TINY_CFG = """\
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

CSV_NAMES = ("diagnostics.csv", "norms.csv", "weights.csv", "flow.csv",
             "picard.csv", "probe.csv")


def test_10_determinism_and_formats(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(TINY_CFG.format(out=out))
        assert cli_main(["paper-check", str(cfg), "--quiet"]) == 0
        outs.append(out)
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in CSV_NAMES)

    grid = Grid3(16, 1.0)
    f = to_real(make_initial_data("random_band", grid,
                                  {"energy": 2.0, "k_band": 5}, seed=9))
    write_field(tmp_path / "f.lgf1", f, time=0.5, nu=0.01)
    g, t, nu = read_field(tmp_path / "f.lgf1")
    field_ok = (np.array_equal(g.samples, f.samples) and (t, nu) == (0.5, 0.01))

    drift = FieldDrift([(0.0, to_spectral(f))])
    ens = integrate_flow(drift, zero_path(0.5, 0.05), lattice_positions(3, 1.0),
                         0.5, "rk4", 0.05, m=3)
    write_trajectories(tmp_path / "t.lgt1", ens)
    back = read_trajectories(tmp_path / "t.lgt1")
    traj_ok = (np.array_equal(back.trajectories, ens.trajectories)
               and np.array_equal(back.times, ens.times))
    ok = identical and field_ok and traj_ok
    verdict(10, ok, f"pipeline reruns byte-identical over {len(CSV_NAMES)} CSVs: "
            f"{identical}; field/trajectory round-trips lossless: "
            f"{field_ok}/{traj_ok}")
