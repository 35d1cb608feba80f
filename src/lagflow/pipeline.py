"""End-to-end pipeline: solve, verify norms, build weights, advect, iterate,
probe uniqueness — emitting CSV/binary artifacts and a run manifest.

The solve stage keeps every diagnostics record that solver.run yields and
only its last state, the solution at t_end, which it evaluates once
(fields.evaluate).  Every later reader shares that EvaluatedField:
field_final.lgf1, the norms stage, the weights stage (which reads its
gradient first, and drops it as the last reader) and the Lagrangian
stages' frozen drift flow.FieldDrift([(T, u)]).  A time-independent drift
keeps the weight build to a single field while still exercising every
downstream estimate.  A FieldDrift of (t, field) pairs collected from
solver.run is the time-dependent drift of the same machinery.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import fields, flow, forcing, io, lorentz, picard, solver, uniqueness, weights
from .config import ExperimentConfig, config_hash, stage_seed

STAGE_ORDER = ("solve", "norms", "weights", "advect", "picard", "probe")

# each stage's compute prerequisites (transitively closed below)
_DEPS = {
    "solve": set(),
    "norms": {"solve"},
    "weights": {"solve"},
    "advect": {"solve", "weights"},
    "picard": {"solve"},
    "probe": {"solve"},
}


def closure(names) -> set:
    out = set()
    todo = list(names)
    while todo:
        s = todo.pop()
        if s not in out:
            if s not in _DEPS:
                raise ValueError(f"unknown stage {s!r}")
            out.add(s)
            todo.extend(_DEPS[s])
    return out


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    output_dir: str
    stages: list = field(default_factory=list)      # {name, seconds, artifacts}
    checks: list = field(default_factory=list)      # {stage, name, value, threshold, status}
    complete: bool = False

    def add_check(self, stage, name, value, threshold, passed, expected_fail=False):
        if expected_fail:
            status = "expected-fail: pass" if passed else "expected-fail: fail"
        else:
            status = "pass" if passed else "fail"
        self.checks.append({"stage": stage, "name": name,
                            "value": float(value), "threshold": float(threshold),
                            "status": status})

    @property
    def failed(self) -> bool:
        return any(c["status"].endswith("fail") and not c["status"].startswith("expected")
                   for c in self.checks)

    def write(self, path) -> None:
        """Atomic write: full serialize to a temp file, then rename."""
        payload = {
            "config_hash": self.config_hash,
            "code_version": self.code_version,
            "output_dir": self.output_dir,
            "stages": self.stages,
            "checks": self.checks,
            "complete": self.complete,
        }
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Stage:
    """Context collecting wall-clock and artifact checksums for one stage."""

    def __init__(self, manifest: RunManifest, name: str):
        self.manifest = manifest
        self.name = name
        self.artifacts = []

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def artifact(self, path):
        self.artifacts.append(str(path))
        return path

    def __exit__(self, exc_type, exc, tb):
        entry = {
            "name": self.name,
            "seconds": time.monotonic() - self.t0,
            "artifacts": [{"path": p, "sha256": _sha256(p)} for p in self.artifacts],
        }
        if exc_type is not None:
            entry["error"] = f"{exc_type.__name__}: {exc}"
        self.manifest.stages.append(entry)
        return False


def pipeline_paper_check(cfg: ExperimentConfig, include: set | None = None) -> RunManifest:
    """Run the stages (all by default); a stage failure halts with a
    partial manifest.  `include` restricts to a subset of STAGE_ORDER;
    compute prerequisites are pulled in automatically."""
    from . import __version__

    out = io.ensure_dir(cfg["output_dir"])
    manifest = RunManifest(config_hash(cfg), __version__, str(out))
    manifest_path = out / "manifest.json"
    wanted = closure(include) if include is not None else set(STAGE_ORDER)
    ctx = {}
    try:
        for name in STAGE_ORDER:
            if name in wanted:
                _STAGES[name](cfg, out, manifest, ctx)
        manifest.complete = True
    finally:
        manifest.write(manifest_path)
    return manifest


# ---------------------------------------------------------------------------
# stages; ctx carries intermediate products between them

def _stage_solve(cfg, out, manifest, ctx):
    grid = fields.Grid3(cfg["solver.n"], cfg["solver.box_len"])
    master = cfg["master_seed"]
    with _Stage(manifest, "solve") as st:
        u0 = solver.make_initial_data(cfg["solver.initial"], grid,
                                      _initial_params(cfg),
                                      seed=stage_seed(master, "initial_data"))
        scfg = solver.SolverConfig(grid, cfg["solver.nu"], cfg["solver.dt"],
                                   cfg["solver.t_end"], cfg["solver.n_moll"],
                                   cfg["solver.dealias"])
        diags = []
        for u_final, record in solver.run(u0, scfg):
            diags.append(record)
        final = fields.evaluate(u_final)
        real_final = fields.RealVectorField(grid, final.velocity)
        io.write_diagnostics_csv(st.artifact(out / "diagnostics.csv"), diags)
        io.write_field(st.artifact(out / "field_initial.lgf1"), fields.to_real(u0),
                       0.0, scfg.nu)
        io.write_field(st.artifact(out / "field_final.lgf1"), real_final,
                       diags[-1].t, scfg.nu)
        u0_energy = diags[0].energy
        rep = solver.check_energy_inequality(diags, scfg.nu)
        manifest.add_check("solve", "energy_inequality",
                           rep.details["worst_margin_rel"], 0.0, rep.passed)
        if cfg["solver.t_end"] >= 1.0:
            fgt = solver.check_fgt_bound(diags, u0_energy, cfg["solver.t_end"])
            manifest.add_check("solve", "fgt_ratio_finite", fgt.ratio,
                               math.inf, fgt.passed)
        budget = solver.check_gradient_lorentz_integral(diags, u0_energy,
                                                        cfg["solver.t_end"])
        manifest.add_check("solve", "gradient_budget_finite", budget.ratio,
                           math.inf, budget.passed)
    ctx["grid"], ctx["final"] = grid, final
    ctx["T"] = cfg["solver.t_end"]
    ctx["drift"] = flow.FieldDrift([(diags[-1].t, real_final)])


def _stage_norms(cfg, out, manifest, ctx):
    with _Stage(manifest, "norms") as st:
        rows = norm_report_rows("field_final", ctx["final"])
        io.write_report_csv(st.artifact(out / "norms.csv"), rows,
                            ("field_id", "check_name", "lhs", "rhs", "ratio", "passed"))
        for row in rows:
            # the refined and Agmon constants are fitted: their verdict is finiteness
            threshold = 1.0 if row[1] == "lorentz_interpolation" else math.inf
            manifest.add_check("norms", row[1], row[4], threshold, row[5] == "true")


def _stage_weights(cfg, out, manifest, ctx):
    master = cfg["master_seed"]
    final = ctx.pop("final")     # the last reader: its gradient dies with this stage
    with _Stage(manifest, "weights") as st:
        h, c_fit = weights.asymmetric_weight(
            final, pair_count=cfg["weights.pair_count"],
            seed=stage_seed(master, "weight_fit"))
        io.write_scalar(st.artifact(out / "weight.lgs1"), ctx["grid"], h.values,
                        ctx["T"])
        ver = weights.verify_asymmetric(final, h, cfg["weights.pair_count"],
                                        seed=stage_seed(master, "weight_verify"))
        io.write_report_csv(st.artifact(out / "weights.csv"),
                            [["fitted_c", c_fit],
                             ["violation_fraction", ver["violation_fraction"]],
                             ["worst_ratio", ver["worst_ratio"]]],
                            ("quantity", "value"))
        manifest.add_check("weights", "pointwise_violation_fraction",
                           ver["violation_fraction"], 1e-3,
                           ver["violation_fraction"] < 1e-3)
    ctx["h"] = h


def _stage_advect(cfg, out, manifest, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    master = cfg["master_seed"]
    gamma = forcing.zero_path(T, cfg["flow.dt"])
    with _Stage(manifest, "advect") as st:
        m = cfg["flow.m"]
        lattice = flow.lattice_positions(m, grid.box_len)
        rows, main_ens = [], None
        for scheme in cfg["flow.schemes"]:
            ens = flow.integrate_flow(drift, gamma, lattice, T, scheme,
                                      cfg["flow.dt"], m=m)
            lhat = flow.compressibility_constant(ens)
            rows.append([scheme, lhat])
            manifest.add_check("advect", f"compressibility_{scheme}", lhat, 1.2,
                               lhat <= 1.2)
            if main_ens is None:
                main_ens = ens
        io.write_trajectories(st.artifact(out / "trajectories.lgt1"), main_ens)
        io.write_report_csv(st.artifact(out / "flow.csv"), rows,
                            ("scheme", "compressibility"))
        H = weights.flow_weight(ctx["h"], main_ens)
        lip = weights.check_flow_lipschitz(main_ens, H,
                                           seed=stage_seed(master, "flow_lipschitz"))
        manifest.add_check("advect", "flow_lipschitz_violation_fraction",
                           lip["violation_fraction"], 1e-2,
                           lip["violation_fraction"] < 1e-2)


def _stage_picard(cfg, out, manifest, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    with _Stage(manifest, "picard") as st:
        plat = flow.lattice_positions(cfg["picard.m"], grid.box_len)
        pgamma = forcing.zero_path(T, cfg["picard.dt"])
        run = picard.picard_iterate(drift, pgamma, plat, cfg["picard.n_iters"],
                                    cfg["picard.dt"])
        slopes = picard.slopes_per_point(run)
        frac_fast = float(np.mean(slopes <= -0.8))
        z0_gap = float(np.max(run.gaps[0]))
        bad = picard.bad_set_measure(run)
        # n = 0 is vacuous when the drift budget is below the unit threshold
        fracs = [r["fraction"] for r in bad["rows"][1:]]
        io.write_report_csv(st.artifact(out / "picard.csv"),
                            [[r["n"], r["threshold"], r["fraction"]]
                             for r in bad["rows"]],
                            ("iterate", "threshold", "bad_fraction"))
        manifest.add_check("picard", "fast_convergence_fraction", frac_fast, 0.9,
                           frac_fast >= 0.9)
        manifest.add_check("picard", "z0_gap_bound", z0_gap, run.b_sup_integral,
                           z0_gap <= run.b_sup_integral * (1.0 + 1e-9))
        manifest.add_check("picard", "bad_set_non_increasing",
                           float(np.max(np.diff(fracs))) if len(fracs) > 1 else 0.0,
                           0.0, all(b <= a + 1e-12 for a, b in zip(fracs, fracs[1:])))


def _stage_probe(cfg, out, manifest, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    with _Stage(manifest, "probe") as st:
        qlat = flow.lattice_positions(cfg["probe.m"], grid.box_len)
        rows = []
        sweep = uniqueness.refinement_sweep(
            drift, forcing.zero_path(T, cfg["probe.dt"]), qlat, T,
            cfg["probe.dt"], cfg["probe.halvings"])
        det = [p["branching_fraction"] for p in sweep]
        rows += [["deterministic", p["dt"], p["branching_fraction"]] for p in sweep]
        manifest.add_check("probe", "deterministic_branching_non_increasing",
                           float(np.max(np.diff(det))) if len(det) > 1 else 0.0,
                           0.0, all(b <= a + 1e-12 for a, b in zip(det, det[1:])))
        for eps in cfg["probe.epsilons"]:
            res = uniqueness.sde_uniqueness_probe(
                drift, qlat, T, cfg["probe.dt"], eps,
                [stage_seed(cfg["master_seed"], f"probe_eps{eps}_{s}")
                 for s in cfg["probe.seeds"]])
            rows.append([f"brownian_eps={eps}", cfg["probe.dt"],
                         res["mean_branching_fraction"]])
        if cfg["probe.negative_control"]:
            rough = uniqueness.negative_control_drift(grid)
            ctrl = uniqueness.ae_uniqueness_probe(
                rough, forcing.zero_path(T, cfg["probe.dt"]), qlat, T,
                cfg["probe.dt"])
            rows.append(["negative_control", cfg["probe.dt"],
                         ctrl["branching_fraction"]])
            manifest.add_check("probe", "negative_control_branching",
                               ctrl["branching_fraction"], 0.05,
                               ctrl["branching_fraction"] > 0.05,
                               expected_fail=True)
        io.write_report_csv(st.artifact(out / "probe.csv"), rows,
                            ("probe", "dt", "branching_fraction"))


_STAGES = {
    "solve": _stage_solve,
    "norms": _stage_norms,
    "weights": _stage_weights,
    "advect": _stage_advect,
    "picard": _stage_picard,
    "probe": _stage_probe,
}


def _initial_params(cfg: ExperimentConfig) -> dict:
    kind = cfg["solver.initial"]
    if kind in ("taylor_green", "shear"):
        return {"amplitude": cfg["solver.amplitude"]}
    return {"energy": cfg["solver.energy"], "k_band": cfg["solver.k_band"]}


def norm_report_rows(field_id: str, u: fields.EvaluatedField) -> list:
    """verify-norms rows: field_id, check_name, lhs, rhs, ratio, passed."""
    reports = (lorentz.check_lorentz_interpolation(u.speed, u.grid.cell_volume, 2.0, 6.0, 0.5),
               lorentz.check_refined_inequality(u),
               lorentz.check_agmon(u.spectral, 1.0, 2.0))
    return [[field_id, rep.name, rep.lhs, rep.rhs, rep.ratio, "true" if rep.passed else "false"]
            for rep in reports]


def emit_summary(manifest: RunManifest) -> tuple:
    """Human-readable text plus a machine-readable verdict table.

    Table rows: (stage, check, value, threshold, status); stages that
    produced no checks appear as a single "skipped" row.
    """
    table = [(c["stage"], c["name"], c["value"], c["threshold"], c["status"])
             for c in manifest.checks]
    ran = {c["stage"] for c in manifest.checks}
    for stage in manifest.stages:
        if stage["name"] not in ran:
            table.append((stage["name"], "-", math.nan, math.nan, "skipped"))
    lines = [f"run {manifest.config_hash[:12]} "
             f"({'complete' if manifest.complete else 'partial'})"]
    for stage, name, value, threshold, status in table:
        lines.append(f"  [{status:>8}] {stage}.{name}: value={value:.6g} "
                     f"threshold={threshold:.6g}")
    verdict = "FAIL" if manifest.failed else "PASS"
    lines.append(f"overall: {verdict}")
    return "\n".join(lines), table
