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
pipeline_paper_check times each stage, records the peak resident set of
the process that ran it (max_rss_mib, where the resource module exists),
hashes its artifacts and records its error; manifest.json is written after
every run, partial ones too, as strict JSON.

Stages run in STAGE_ORDER in this process, at most `concurrency`
(LAGFLOW_THREADS) at once.  From 2 on, the ready leaves (stages no later
stage of the run reads ctx from) beside the one this process starts go to
workers forked here, which send back only their stages' entries, checks
and failed flags; paper-check thus runs picard and probe beside norms,
weights and advect.  This is the only module that forks.

The solve stage keeps every diagnostics record that solver.run yields and
only its last state, the solution at t_end, which it evaluates once
(fields.evaluate).  Every later reader shares that EvaluatedField:
field_final.lgf1, the norms stage, the weights stage (which reads its
|grad u|, computed on first read and kept, and is its last reader) and the
Lagrangian stages' frozen drift flow.FieldDrift([(T, u)]).  A
time-independent drift keeps the weight build to a single field while still
exercising every downstream estimate.  A FieldDrift of (t, field) pairs collected from
solver.run is the time-dependent drift of the same machinery.

The advect stage holds one save at a time: flow.FlowSaves yields each save
of its scheme as it is computed, and the first scheme's go at once to
io.write_saves (trajectories.lgt1), weights.FlowWeightSum (H_T) and
weights.LatticePairs (the flow-Lipschitz gaps).  Each scheme keeps only
its last save, for the compressibility check.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import operator
import os
import pickle
import select
import signal
import time
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

from . import fields, flow, forcing, io, lorentz, picard, solver, uniqueness, weights
from .config import ExperimentConfig, config_hash, stage_seed

try:
    import resource
except ImportError:      # not POSIX: stage entries carry no max_rss_mib
    resource = None

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
    stages: list = field(default_factory=list)      # {name, seconds[, max_rss_mib], artifacts,
                                                    #  figures[, error]}
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
        """writer(path, *args), then register path (not if writer raises);
        returns what writer returns."""
        result = writer(path, *args)
        self.artifacts.append(str(path))
        return result

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


def pipeline_paper_check(cfg: ExperimentConfig, include: set | None = None,
                         concurrency: int = 1) -> RunManifest:
    """Run the stages (all by default); a stage failure halts with a
    partial manifest.  `include` restricts to a subset of STAGE_ORDER;
    compute prerequisites are pulled in automatically.  Each stage's entry
    gets its wall-clock, its artifacts' sha256 and, if it raised, the error.

    At most `concurrency` stages run at once.  At 1 every stage runs in this
    process, in STAGE_ORDER.  Above 1 (where os.fork exists), a leaf stage
    (one no later stage of the run reads ctx from) may instead run in a
    forked worker: see _run_stages.  Entries and checks are listed in
    STAGE_ORDER whatever the order the stages finished in, and each entry's
    seconds is that stage's wall-clock in its own process, so the seconds of
    overlapping stages do not add up to the run's."""
    from . import __version__

    out = io.ensure_dir(cfg["output_dir"])
    manifest = RunManifest(config_hash(cfg), __version__, str(out))
    wanted = closure(include) if include is not None else set(STAGE_ORDER)
    try:
        _run_stages([s for s in STAGE_ORDER if s in wanted], cfg, out, manifest,
                    concurrency if hasattr(os, "fork") else 1)
        manifest.complete = True
    finally:
        manifest.stages.sort(key=lambda s: STAGE_ORDER.index(s["name"]))
        manifest.checks.sort(key=lambda c: STAGE_ORDER.index(c["stage"]))
        manifest.write(out / "manifest.json")
    return manifest


def _run_stage(name, cfg, out, manifest, ctx) -> None:
    """Run one stage and append its entry to the manifest, also when it raises."""
    record, entry = StageRecord(manifest, name), {"name": name}
    t0 = time.monotonic()
    try:
        _STAGES[name](cfg, out, record, ctx)
    except BaseException as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        entry["seconds"] = time.monotonic() - t0
        if resource is not None:    # KiB on Linux; a worker's counts pages shared since the fork
            entry["max_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        entry["artifacts"] = [{"path": p, "sha256": _sha256(p)} for p in record.artifacts]
        entry["figures"] = record.figures
        manifest.stages.append(entry)


# ---------------------------------------------------------------------------
# stage scheduling; ctx never crosses a process boundary

@dataclass
class _Worker:
    """A forked process running a batch of leaf stages in STAGE_ORDER."""
    pid: int
    fd: int                  # read end of its report pipe
    batch: list
    started: float
    report: bytearray = field(default_factory=bytearray)


def _run_stages(order, cfg, out, manifest, concurrency) -> None:
    """Run the stages of `order` (a subsequence of STAGE_ORDER).

    This process runs them in turn.  Before each one, the other ready leaves
    (prerequisites done, no later stage of the run depending on them) are
    dealt round-robin to up to concurrency - 1 - (running workers) new
    workers forked from here, each of which runs its batch in STAGE_ORDER.
    So at most `concurrency` stages run at once, a stage that later stages
    read ctx from always runs here, and nothing forks while only one stage
    can run.  A worker sends back, per stage, its entry, checks and failed
    flag.  Once a stage raises, here or in a worker, no stage starts; the
    running ones finish, and the first error is raised."""
    leaves = {s for s in order if not any(s in _DEPS[t] for t in order)}
    pending, done, workers, ctx = list(order), set(), [], {}
    stop = os.pipe() if concurrency > 1 else None    # a byte in it: start no stage
    error = None
    try:
        while pending and error is None:
            error = _reap(workers, manifest, block=False)
            if error is not None:
                break
            name = pending.pop(0)
            ready = [s for s in pending if s in leaves and _DEPS[s] <= done]
            k = min(concurrency - 1 - len(workers), len(ready))
            if k > 0:
                for i in range(k):
                    workers.append(_fork_worker(ready[i::k], cfg, out, manifest, ctx, stop[0]))
                pending = [s for s in pending if s not in ready]
            try:
                _run_stage(name, cfg, out, manifest, ctx)
            except Exception as exc:
                error = exc
            done.add(name)
        while workers:
            if error is not None:
                os.write(stop[1], b"x")
            exc = _reap(workers, manifest, block=True)
            error = exc if error is None else error
    finally:
        for w in workers:            # only left when this process is interrupted
            os.kill(w.pid, signal.SIGKILL)
        while workers:
            _reap(workers, manifest, block=True)
        if stop is not None:
            os.close(stop[0])
            os.close(stop[1])
    if error is not None:
        raise error


def _fork_worker(batch, cfg, out, manifest, ctx, stop_fd) -> _Worker:
    """Fork a worker that runs `batch` on its copy of ctx and reports each
    stage through a pipe.  fork, not spawn: a spawned worker would import
    lagflow again (about 0.6 s) and need ctx pickled.  The only other
    threads here are the OpenBLAS pools', which OpenBLAS stops across a fork."""
    parent = os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return _Worker(pid, r, list(batch), time.monotonic())
    # the worker: never returns, so no inherited finally or atexit handler runs
    status = 1
    try:
        _die_with_parent(parent)
        os.close(r)
        with os.fdopen(w, "wb") as report:
            for name in batch:
                if select.select([stop_fd], [], [], 0)[0]:
                    break
                manifest.stages, manifest.checks, manifest.failed = [], [], False
                exc = None
                try:
                    _run_stage(name, cfg, out, manifest, ctx)
                except Exception as e:
                    exc = e
                report.write(pickle.dumps((manifest.stages[0], manifest.checks,
                                           manifest.failed, _portable(exc))))
                report.flush()
                if exc is not None:
                    break
        status = 0
    finally:
        os._exit(status)


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies (Linux
    prctl PR_SET_PDEATHSIG), and exit at once if the parent is already gone."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)                   # 1 = PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass                # no prctl: not Linux
    if os.getppid() != parent:
        os._exit(1)


def _portable(exc):
    """exc if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


def _reap(workers, manifest, block: bool):
    """Read what the workers have reported; merge each finished worker's
    stages into the manifest.  With block, wait until one worker finishes.
    Returns the first stage error among finished workers, or None."""
    finished = []
    while workers and not finished:
        ready = select.select([w.fd for w in workers], [], [], None if block else 0)[0]
        for w in [w for w in workers if w.fd in ready]:
            chunk = os.read(w.fd, 1 << 16)
            w.report += chunk
            if not chunk:
                workers.remove(w)
                finished.append(w)
        if not block:
            break
    error = None
    for w in finished:
        exc = _merge_worker(w, manifest)
        error = exc if error is None else error
    return error


def _merge_worker(w: _Worker, manifest):
    """Reap a finished worker and merge the stages it reported.  The stage
    it was running when it died, if it did, is recorded as an error.
    Returns its stage error, or None."""
    os.close(w.fd)
    _, status = os.waitpid(w.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    stream, reported, error = BytesIO(w.report), [], None
    while stream.tell() < len(w.report):
        try:
            entry, checks, failed, exc = pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            break           # cut short by a worker that died while writing
        manifest.stages.append(entry)
        manifest.checks.extend(checks)
        manifest.failed |= failed
        reported.append(entry)
        if "error" in entry:
            error = exc if exc is not None else RuntimeError(entry["error"])
    if code != 0 and len(reported) < len(w.batch):
        name = w.batch[len(reported)]
        error = RuntimeError(f"worker for stage {name} exited with status {code} "
                             "before reporting")
        manifest.stages.append({
            "name": name, "error": f"RuntimeError: {error}", "artifacts": [], "figures": {},
            "seconds": time.monotonic() - w.started - sum(e["seconds"] for e in reported)})
    return error


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
    record.check("energy_inequality", solver.check_energy_inequality(diags), "<=", 0.0)
    if cfg["solver.t_end"] >= 1.0:
        record.check("fgt_ratio_finite",
                     solver.check_fgt_bound(diags, u0_energy, cfg["solver.t_end"]), "finite")
    record.check("gradient_budget_finite",
                 solver.check_gradient_lorentz_integral(diags, u0_energy, cfg["solver.t_end"]),
                 "finite")
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
    final = ctx.pop("final")     # the last reader: its |grad u| dies with this stage
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
    grid, T, drift, dt = ctx["grid"], ctx["T"], ctx["drift"], cfg["flow.dt"]
    gamma = forcing.zero_path(T, dt)
    m = cfg["flow.m"]
    lattice = flow.lattice_positions(m, grid.box_len)
    # one pass per scheme, holding one save at a time.  The first scheme's
    # saves go, as each is computed, to trajectories.lgt1, the flow weight's
    # trapezoid and the lattice pairs' gaps; any other saves t = 0 and T.
    # Each keeps only its last save, all its compressibility check reads
    endpoints = forcing.time_grid(T, dt).size - 1
    rows, lip = [], None
    for scheme in cfg["flow.schemes"]:
        saves = flow.FlowSaves(drift, gamma, lattice, T, scheme, dt,
                               save_every=None if lip is None else endpoints)
        if lip is None:
            H = weights.FlowWeightSum(ctx["h"], saves.times)
            pairs = weights.LatticePairs(lattice, m,
                                         seed=stage_seed(cfg["master_seed"], "flow_lipschitz"))
            last = record.write(out / "trajectories.lgt1", io.write_saves, saves.times,
                                grid.box_len, _read_each(saves, H.add, pairs.add))
            lip = pairs.check(H.value())
        else:
            for last in saves:
                pass
        final = flow.ParticleEnsemble(lattice, saves.times[-1:], last[None], grid.box_len, m)
        lhat = flow.compressibility_constant(final)
        rows.append([scheme, lhat])
        record.check(f"compressibility_{scheme}", lhat, "<=", 1.2)
    record.write(out / "flow.csv", io.write_report_csv, rows, ("scheme", "compressibility"))
    record.check("flow_lipschitz_violation_fraction", lip["violation_fraction"], "<", 1e-2)


def _read_each(saves, *readers):
    """Each save of `saves`, once every reader has read it."""
    for x in saves:
        for read in readers:
            read(x)
        yield x


def _stage_picard(cfg, out, record, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    plat = flow.lattice_positions(cfg["picard.m"], grid.box_len)
    pgamma = forcing.zero_path(T, cfg["picard.dt"])
    run = picard.picard_iterate(drift, pgamma, plat, cfg["picard.n_iters"],
                                cfg["picard.dt"])
    slopes = picard.slopes_per_point(run)
    bad = picard.bad_set_measure(run)
    record.write(out / "picard.csv", io.write_report_csv,
                 [[r["n"], r["threshold"], r["fraction"]] for r in bad],
                 ("iterate", "threshold", "bad_fraction"))
    record.check("fast_convergence_fraction", np.mean(slopes <= -0.8), ">=", 0.9)
    record.check("z0_gap_bound", np.max(run.gaps[0]), "<=",
                 run.b_sup_integral * (1.0 + 1e-9))
    # n = 0 is vacuous when the drift budget is below the unit threshold
    record.check("bad_set_non_increasing",
                 _largest_rise([r["fraction"] for r in bad[1:]]), "<=", 1e-12)


def _stage_probe(cfg, out, record, ctx):
    grid, T, drift = ctx["grid"], ctx["T"], ctx["drift"]
    qlat = flow.lattice_positions(cfg["probe.m"], grid.box_len)
    sweep = uniqueness.refinement_sweep(
        drift, forcing.zero_path(T, cfg["probe.dt"]), qlat, T,
        cfg["probe.dt"], cfg["probe.halvings"])
    rows = [["deterministic", p["dt"], p["branching_fraction"]] for p in sweep]
    record.check("deterministic_branching_non_increasing",
                 _largest_rise([p["branching_fraction"] for p in sweep]), "<=", 1e-12)
    probes = list(sweep)
    for eps in cfg["probe.epsilons"]:
        res = uniqueness.sde_uniqueness_probe(
            drift, qlat, T, cfg["probe.dt"], eps,
            [stage_seed(cfg["master_seed"], f"probe_eps{eps}_{s}")
             for s in cfg["probe.seeds"]])
        rows.append([f"brownian_eps={eps}", cfg["probe.dt"],
                     res["mean_branching_fraction"]])
        probes += res["probes"]
    record.figure(picard_max_iterations=max(p["picard_iterations"] for p in probes),
                  picard_max_residual=max(p["picard_residual"] for p in probes))
    if cfg["probe.negative_control"]:
        rough = uniqueness.negative_control_drift(grid)
        ctrl = uniqueness.ae_uniqueness_probe(
            rough, forcing.zero_path(T, cfg["probe.dt"]), qlat, T, cfg["probe.dt"])
        rows.append(["negative_control", cfg["probe.dt"], ctrl["branching_fraction"]])
        record.check("negative_control_branching", ctrl["branching_fraction"], ">", 0.05,
                     expected_fail=True)
        record.figure(control_picard_max_iterations=ctrl["picard_iterations"],
                      control_picard_max_residual=ctrl["picard_residual"])
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
