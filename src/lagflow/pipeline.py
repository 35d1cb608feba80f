"""End-to-end pipeline: solve, verify norms, build weights, advect, iterate,
probe uniqueness — emitting CSV/binary artifacts and a run manifest.

Each stage function takes its StageRecord.  It writes each artifact through
StageRecord.write, which registers it once written, and states each check
once, as a value, a rule (<, <=, >=, > or finite) and a threshold (None for
finite); StageRecord.check derives the verdict from those three, records
{stage, name, value, rule, threshold, status} and returns it.  A failed
verdict, a negative control's included, fails the run.  StageRecord.figure
adds named figures, such as an approximation's certified bound, to the
stage's manifest entry; no CSV carries them.
pipeline_paper_check times each stage, hashes its artifacts and records its
error; manifest.json is written after every run, partial ones too, as
strict JSON.

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
import operator
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
    stages: list = field(default_factory=list)      # {name, seconds, artifacts, figures[, error]}
    checks: list = field(default_factory=list)      # {stage, name, value, rule, threshold, status}
    complete: bool = False
    failed: bool = False                            # some check's verdict was False

    def write(self, path) -> None:
        """Atomic strict-JSON write: full serialize to a temp file, then
        rename.  A non-finite check value or threshold, or stage figure, is
        written as the string "inf", "-inf" or "nan"."""
        def number(x):
            return x if x is None or math.isfinite(x) else str(x)

        payload = {
            "config_hash": self.config_hash,
            "code_version": self.code_version,
            "output_dir": self.output_dir,
            "stages": [{**s, "figures": {k: number(v) for k, v in s["figures"].items()}}
                       for s in self.stages],
            "checks": [{**c, "value": number(c["value"]), "threshold": number(c["threshold"])}
                       for c in self.checks],
            "complete": self.complete,
        }
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")
        os.replace(tmp, path)


_RULES = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt,
          "finite": lambda value, _threshold: math.isfinite(value)}


@dataclass
class StageRecord:
    """One stage's artifacts, checks and figures."""
    manifest: RunManifest
    name: str
    artifacts: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)

    def write(self, path, writer, *args):
        """writer(path, *args), then register path (not if writer raises)."""
        writer(path, *args)
        self.artifacts.append(str(path))

    def check(self, name, value, rule, threshold=None, expected_fail=False) -> bool:
        """Decide `value <rule> threshold` (or, for rule "finite", that value
        is finite, with threshold None), record it and return the verdict.
        A negative control is marked expected_fail; it fails the run as any
        other check does when its verdict is False."""
        value = float(value)
        threshold = None if threshold is None else float(threshold)
        passed = _RULES[rule](value, threshold)
        status = "pass" if passed else "fail"
        self.manifest.checks.append({
            "stage": self.name, "name": name, "value": value, "rule": rule,
            "threshold": threshold,
            "status": f"expected-fail: {status}" if expected_fail else status})
        self.manifest.failed |= not passed
        return passed

    def figure(self, **figures) -> None:
        """Add named figures to the stage's manifest entry: an int as it is,
        anything else as a float."""
        self.figures.update({k: v if isinstance(v, int) else float(v)
                             for k, v in figures.items()})


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def pipeline_paper_check(cfg: ExperimentConfig, include: set | None = None) -> RunManifest:
    """Run the stages (all by default); a stage failure halts with a
    partial manifest.  `include` restricts to a subset of STAGE_ORDER;
    compute prerequisites are pulled in automatically.  Each stage's entry
    gets its wall-clock, its artifacts' sha256 and, if it raised, the error."""
    from . import __version__

    out = io.ensure_dir(cfg["output_dir"])
    manifest = RunManifest(config_hash(cfg), __version__, str(out))
    wanted = closure(include) if include is not None else set(STAGE_ORDER)
    ctx = {}
    try:
        for name in (s for s in STAGE_ORDER if s in wanted):
            record, entry = StageRecord(manifest, name), {"name": name}
            t0 = time.monotonic()
            try:
                _STAGES[name](cfg, out, record, ctx)
            except BaseException as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                entry["seconds"] = time.monotonic() - t0
                entry["artifacts"] = [{"path": p, "sha256": _sha256(p)}
                                      for p in record.artifacts]
                entry["figures"] = record.figures
                manifest.stages.append(entry)
        manifest.complete = True
    finally:
        manifest.write(out / "manifest.json")
    return manifest


def _largest_rise(xs) -> float:
    """max_i (x[i+1] - x[i]); 0 for fewer than two entries.  A sequence is
    non-increasing (up to rounding) when this is <= 1e-12."""
    return float(np.max(np.diff(xs))) if len(xs) > 1 else 0.0


# ---------------------------------------------------------------------------
# stages; ctx carries intermediate products between them

def _stage_solve(cfg, out, record, ctx):
    grid = fields.Grid3(cfg["solver.n"], cfg["solver.box_len"])
    master = cfg["master_seed"]
    u0 = solver.make_initial_data(cfg["solver.initial"], grid, _initial_params(cfg),
                                  seed=stage_seed(master, "initial_data"))
    scfg = solver.SolverConfig(grid, cfg["solver.nu"], cfg["solver.dt"],
                               cfg["solver.t_end"], cfg["solver.n_moll"],
                               cfg["solver.dealias"])
    diags = []
    for u_final, diag in solver.run(u0, scfg):
        diags.append(diag)
    final = fields.evaluate(u_final)
    real_final = fields.RealVectorField(grid, final.velocity)
    record.write(out / "diagnostics.csv", io.write_diagnostics_csv, diags)
    record.write(out / "field_initial.lgf1", io.write_field, fields.to_real(u0),
                 0.0, scfg.nu)
    record.write(out / "field_final.lgf1", io.write_field, real_final,
                 diags[-1].t, scfg.nu)
    u0_energy = diags[0].energy
    rep = solver.check_energy_inequality(diags, scfg.nu)
    record.check("energy_inequality", rep.details["worst_margin_rel"], "<=", 0.0)
    if cfg["solver.t_end"] >= 1.0:
        fgt = solver.check_fgt_bound(diags, u0_energy, cfg["solver.t_end"])
        record.check("fgt_ratio_finite", fgt.ratio, "finite")
    budget = solver.check_gradient_lorentz_integral(diags, u0_energy, cfg["solver.t_end"])
    record.check("gradient_budget_finite", budget.ratio, "finite")
    ctx["grid"], ctx["final"] = grid, final
    ctx["T"] = cfg["solver.t_end"]
    ctx["drift"] = flow.FieldDrift([(diags[-1].t, real_final)])


def _stage_norms(cfg, out, record, ctx):
    u = ctx["final"]
    # the refined and Agmon constants are fitted: their verdict is finiteness
    checks = ((lorentz.check_lorentz_interpolation(u.speed, u.grid.cell_volume,
                                                   2.0, 6.0, 0.5), "<=", 1.0 + 1e-9),
              (lorentz.check_refined_inequality(u), "finite", None),
              (lorentz.check_agmon(u.spectral, 1.0, 2.0), "finite", None))
    rows = [["field_final", rep.name, rep.lhs, rep.rhs, rep.ratio,
             "true" if record.check(rep.name, rep.ratio, rule, threshold) else "false"]
            for rep, rule, threshold in checks]
    record.write(out / "norms.csv", io.write_report_csv, rows,
                 ("field_id", "check_name", "lhs", "rhs", "ratio", "passed"))


def _stage_weights(cfg, out, record, ctx):
    master = cfg["master_seed"]
    final = ctx.pop("final")     # the last reader: its gradient dies with this stage
    h, c_fit = weights.asymmetric_weight(final, pair_count=cfg["weights.pair_count"],
                                         seed=stage_seed(master, "weight_fit"))
    record.write(out / "weight.lgs1", io.write_scalar, ctx["grid"], h.values, ctx["T"])
    ver = weights.verify_asymmetric(final, h, cfg["weights.pair_count"],
                                    seed=stage_seed(master, "weight_verify"))
    record.write(out / "weights.csv", io.write_report_csv,
                 [["fitted_c", c_fit],
                  ["violation_fraction", ver["violation_fraction"]],
                  ["worst_ratio", ver["worst_ratio"]]],
                 ("quantity", "value"))
    record.check("pointwise_violation_fraction", ver["violation_fraction"], "<", 1e-3)
    record.figure(spectral_crop_modes=ver["crop_modes"], spectral_tail_bound=ver["tail_bound"],
                  **{f"stein_bracket_width_r{r}": w for r, w in h.bracket_widths.items()})
    ctx["h"] = h


def _stage_advect(cfg, out, record, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    gamma = forcing.zero_path(T, cfg["flow.dt"])
    m = cfg["flow.m"]
    lattice = flow.lattice_positions(m, grid.box_len)
    rows, main_ens = [], None
    for scheme in cfg["flow.schemes"]:
        ens = flow.integrate_flow(drift, gamma, lattice, T, scheme, cfg["flow.dt"], m=m)
        lhat = flow.compressibility_constant(ens)
        rows.append([scheme, lhat])
        record.check(f"compressibility_{scheme}", lhat, "<=", 1.2)
        if main_ens is None:
            main_ens = ens
    record.write(out / "trajectories.lgt1", io.write_trajectories, main_ens)
    record.write(out / "flow.csv", io.write_report_csv, rows, ("scheme", "compressibility"))
    H = weights.flow_weight(ctx["h"], main_ens)
    lip = weights.check_flow_lipschitz(main_ens, H,
                                       seed=stage_seed(cfg["master_seed"], "flow_lipschitz"))
    record.check("flow_lipschitz_violation_fraction", lip["violation_fraction"], "<", 1e-2)


def _stage_picard(cfg, out, record, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    plat = flow.lattice_positions(cfg["picard.m"], grid.box_len)
    pgamma = forcing.zero_path(T, cfg["picard.dt"])
    run = picard.picard_iterate(drift, pgamma, plat, cfg["picard.n_iters"],
                                cfg["picard.dt"])
    slopes = picard.slopes_per_point(run)
    bad = picard.bad_set_measure(run)
    record.write(out / "picard.csv", io.write_report_csv,
                 [[r["n"], r["threshold"], r["fraction"]] for r in bad["rows"]],
                 ("iterate", "threshold", "bad_fraction"))
    record.check("fast_convergence_fraction", np.mean(slopes <= -0.8), ">=", 0.9)
    record.check("z0_gap_bound", np.max(run.gaps[0]), "<=",
                 run.b_sup_integral * (1.0 + 1e-9))
    # n = 0 is vacuous when the drift budget is below the unit threshold
    record.check("bad_set_non_increasing",
                 _largest_rise([r["fraction"] for r in bad["rows"][1:]]), "<=", 1e-12)


def _stage_probe(cfg, out, record, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    qlat = flow.lattice_positions(cfg["probe.m"], grid.box_len)
    sweep = uniqueness.refinement_sweep(
        drift, forcing.zero_path(T, cfg["probe.dt"]), qlat, T,
        cfg["probe.dt"], cfg["probe.halvings"])
    rows = [["deterministic", p["dt"], p["branching_fraction"]] for p in sweep]
    record.check("deterministic_branching_non_increasing",
                 _largest_rise([p["branching_fraction"] for p in sweep]), "<=", 1e-12)
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
            rough, forcing.zero_path(T, cfg["probe.dt"]), qlat, T, cfg["probe.dt"])
        rows.append(["negative_control", cfg["probe.dt"], ctrl["branching_fraction"]])
        record.check("negative_control_branching", ctrl["branching_fraction"], ">", 0.05,
                     expected_fail=True)
    record.write(out / "probe.csv", io.write_report_csv, rows,
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


def emit_summary(manifest: RunManifest) -> str:
    """Human-readable verdicts: one line per check, then the overall one."""
    lines = [f"run {manifest.config_hash[:12]} "
             f"({'complete' if manifest.complete else 'partial'})"]
    for c in manifest.checks:
        bound = c["rule"] if c["threshold"] is None else f"{c['rule']} {c['threshold']:.10g}"
        lines.append(f"  [{c['status']:>8}] {c['stage']}.{c['name']}: "
                     f"value={c['value']:.6g} {bound}")
    lines.append(f"overall: {'FAIL' if manifest.failed else 'PASS'}")
    return "\n".join(lines)
