#!/usr/bin/env python3
"""Benchmark of lagflow: runs one workload through the real CLI, checks its
outputs apart from the program and prints every metric with its unit.

    python3 perfbench/run.py --workload paper-check-n32 --seed 1 --seconds 10 --trace 0

Run from the repository root; the CLI is imported from ./src.  The loop is
closed: one CLI child at a time, rounds repeated until --seconds have passed
(whole rounds; each workload's round is longer than the configured run, so a
run is one round today).  --trace 0 reports the end-to-end metrics of the
untraced rounds.  --trace 1 runs the same untraced rounds and then one
traced round (perfbench/tracer.py) and reports the per-layer metrics.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ALL_STAGES = ("solve", "norms", "weights", "advect", "picard", "probe")
RUN_LIMIT_S = 170.0          # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Keys the output checks depend on are written explicitly; they equal
# lagflow's defaults, so paper-check-n32 is the default config.
BASE_CONFIG = {
    "solver.initial": "taylor_green",
    "solver.amplitude": 1.0,
    "solver.box_len": 1.0,
    "solver.nu": 0.05,
    "solver.dt": 0.01,
}


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    stages: tuple


WORKLOADS = {
    # the run users make; weights (stein_maximal + spectral pairs) is its largest stage
    "paper-check-n32": Workload("paper-check", {"solver.n": 32, "solver.t_end": 1.0},
                                ALL_STAGES),
    # FFT-bound solver at a size out of cache; no sampling, particle or weight code
    "solve-n64": Workload("solve", {"solver.n": 64, "solver.t_end": 0.2}, ("solve",)),
    # sampling in large batches (advect) and many small ones (probe)
    "lagrangian-n16": Workload("paper-check", {"solver.n": 16, "solver.t_end": 1.0,
                                               "flow.m": 32, "probe.m": 10},
                               ALL_STAGES),
}


@dataclass
class Round:
    wall_s: float
    setup_s: float
    peak_rss_mib: float
    cpu_s: float
    manifest: dict | None
    ops: list = field(default_factory=list)      # (name, passed, detail)
    digests: dict = field(default_factory=dict)  # CSV name -> sha256

    @property
    def stage_seconds(self) -> dict:
        return {s["name"]: s["seconds"] for s in (self.manifest or {}).get("stages", [])}


def default_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root: Path, threads: int) -> dict:
    """The caller's environment with the thread caps and import path set here:
    lagflow only fills thread variables that are unset."""
    env = dict(os.environ)
    env["LAGFLOW_THREADS"] = str(threads)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = str(root / "src")
    return env


def write_config(path: Path, wl: Workload, seed: int, out_dir: Path) -> None:
    values = {"output_dir": out_dir, "master_seed": seed, **BASE_CONFIG, **wl.config}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def _parent_death_hook():
    """Pre-exec hook that has the kernel SIGKILL the child when this process
    dies, so a benchmark killed from outside leaves no CLI child running.
    None where prctl is unavailable (not Linux)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    pr_set_pdeathsig = 1
    return lambda: prctl(pr_set_pdeathsig, int(signal.SIGKILL))


def _exit_on_sigterm(signum, _frame):
    # raised in the main thread, so spawn() kills and reaps its child
    raise SystemExit(128 + signum)


def _watch_for(path: Path, t0: float, stop: threading.Event, seen: list) -> None:
    """Append the seconds from t0 until path exists (polled each millisecond)."""
    while not stop.is_set():
        if path.exists():
            seen.append(time.perf_counter() - t0)
            return
        time.sleep(0.001)


def spawn(cmd, env, log_path: Path, deadline: float, out_dir: Path):
    """Run one child to its end; (wall seconds, set-up seconds, return code,
    rusage).  Set-up is spawn until the child creates out_dir, which the CLI
    does right after interpreter start, imports and config parsing; NaN if it
    never does."""
    stop, seen = threading.Event(), []
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT,
                                preexec_fn=_parent_death_hook())
        watcher = threading.Thread(target=_watch_for, args=(out_dir, t0, stop, seen),
                                   daemon=True)
        watcher.start()
        killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # keep the maximum over every earlier child
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            stop.set()
            watcher.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, seen[0] if seen else math.nan, proc.returncode, usage


def verdict_ops(wl: Workload, manifest: dict | None, returncode: int) -> list:
    """Manifest verdicts, plus one operation per stage the workload runs."""
    stages = {s["name"]: s for s in (manifest or {}).get("stages", [])}
    ops = []
    for name in wl.stages:
        st = stages.get(name)
        ops.append((f"stage.{name}", st is not None and "error" not in st,
                    "missing" if st is None else st.get("error", "")))
    for c in (manifest or {}).get("checks", []):
        ops.append((f"verdict.{c['stage']}.{c['name']}",
                    c["status"] in ("pass", "expected-fail: pass"), c["status"]))
    if manifest is None or not manifest.get("complete") or returncode not in (0, 2):
        ops.append(("cli.exit", False, f"exit {returncode}"))
    return ops


def run_round(root: Path, work: Path, label: str, wl: Workload, seed: int,
              threads: int, deadline: float, trace_path: Path | None = None) -> Round:
    out = work / label
    cfg = work / f"{label}.cfg"
    write_config(cfg, wl, seed, out)
    cli_args = [wl.command, str(cfg), "--quiet"]
    if trace_path is None:
        cmd = [sys.executable, "-m", "lagflow.cli", *cli_args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *cli_args]
    wall, setup, rc, usage = spawn(cmd, child_env(root, threads), work / f"{label}.log",
                                   deadline, out)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        manifest = None
    rnd = Round(wall, setup, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                manifest)
    rnd.ops = verdict_ops(wl, manifest, rc)
    ctx = {"seed": seed, "amplitude": BASE_CONFIG["solver.amplitude"],
           "box_len": BASE_CONFIG["solver.box_len"]}
    for r in checks.run_checks(out, wl.stages, ctx):
        detail = r.error or f"value={r.value:.6g} limit={r.limit:.6g}"
        rnd.ops.append((f"check.{r.name}", r.passed, detail))
    if out.is_dir():
        rnd.digests = checks.csv_digests(out)
    failed = [op for op in rnd.ops if not op[1]]
    if failed:
        log_tail = (work / f"{label}.log").read_text(errors="replace")[-2000:]
        print(f"{label}: {len(failed)} failed: {failed}\n{log_tail}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)   # trajectories reach 50 MB per round
    return rnd


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(rounds: list) -> dict:
    return {
        "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
        # one cold set-up per run: later rounds find the file cache warm
        "setup_s": metric(rounds[0].setup_s, "s"),
        "peak_rss_mib": metric(statistics.median(r.peak_rss_mib for r in rounds), "MiB"),
    }


def layer_metrics(summary: dict, rounds: list, traced_wall: float) -> dict:
    names, cnt = summary["by_name"], summary["counters"]

    def calls(name):
        return metric(names.get(name, {}).get("calls", 0), "count")

    def self_s(name):
        return metric(names.get(name, {}).get("self_s", 0.0), "s")

    def count(key, unit="count"):
        return metric(cnt.get(key, 0), unit)

    stage_secs = [r.stage_seconds for r in rounds]
    m = {}
    for stage in ALL_STAGES:
        m[f"pipeline.{stage}_s"] = metric(
            statistics.median(s.get(stage, 0.0) for s in stage_secs), "s")
        st = summary["stages"].get(stage)
        share = st["covered_s"] / st["seconds"] if st and st["seconds"] > 0 else 0.0
        m[f"pipeline.{stage}.coverage_pct"] = metric(100.0 * share, "%")
    outer_steps = (names.get("solver.diagnostics", {}).get("calls", 0)
                   - names.get("solver.run", {}).get("calls", 0))
    m.update({
        "solver.step.calls": calls("solver.step"),
        "solver.step.self_s": self_s("solver.step"),
        "solver.cfl_substeps": metric(calls("solver.step")["value"] - outer_steps, "count"),
        "solver.diagnostics.self_s": self_s("solver.diagnostics"),
        "solver.max_speed.self_s": self_s("solver.max_speed"),
        "fields.fft.calls": calls("fields.fft"),
        "fields.fft.elements": count("fields.fft.elements"),
        "fields.fft.self_s": self_s("fields.fft"),
        "fields.gradient.self_s": self_s("fields.gradient"),
        "fields.to_real.calls": calls("fields.to_real"),
        "fields.sample_trilinear.calls": calls("fields.sample_trilinear"),
        "fields.sample_trilinear.points": count("fields.sample_trilinear.points"),
        "fields.sample_trilinear.self_s": self_s("fields.sample_trilinear"),
        "fields.sample_scalar_trilinear.self_s": self_s("fields.sample_scalar_trilinear"),
        "fields.sample_spectral.calls": calls("fields.sample_spectral"),
        "fields.sample_spectral.points": count("fields.sample_spectral.points"),
        "fields.sample_spectral.self_s": self_s("fields.sample_spectral"),
        "lorentz.lorentz_norm.calls": calls("lorentz.lorentz_norm"),
        "lorentz.lorentz_norm.self_s": self_s("lorentz.lorentz_norm"),
        "weights.maximal_function.self_s": self_s("weights.maximal_function"),
        "weights.stein_maximal.self_s": self_s("weights.stein_maximal"),
        "weights.asymmetric_weight.self_s": self_s("weights.asymmetric_weight"),
        "weights.verify_asymmetric.self_s": self_s("weights.verify_asymmetric"),
        "weights.pairs": count("weights.pairs"),
        "weights.flow_weight.self_s": self_s("weights.flow_weight"),
        "weights.check_flow_lipschitz.self_s": self_s("weights.check_flow_lipschitz"),
        "flow.integrate_flow.calls": calls("flow.integrate_flow"),
        "flow.integrate_flow.self_s": self_s("flow.integrate_flow"),
        "flow.particle_steps": count("flow.particle_steps"),
        "flow.compressibility_constant.self_s": self_s("flow.compressibility_constant"),
        "forcing.at.calls": calls("forcing.at"),
        "forcing.at.self_s": self_s("forcing.at"),
        "picard.picard_iterate.calls": calls("picard.picard_iterate"),
        "picard.picard_iterate.self_s": self_s("picard.picard_iterate"),
        "picard.reference_s": metric(summary["picard_reference_s"], "s"),
        "picard.discarded_reference_s": metric(summary["picard_discarded_reference_s"], "s"),
        "uniqueness.ae_uniqueness_probe.calls": calls("uniqueness.ae_uniqueness_probe"),
        "uniqueness.ae_uniqueness_probe.self_s": self_s("uniqueness.ae_uniqueness_probe"),
        "uniqueness.candidates": count("uniqueness.candidates"),
        "uniqueness.candidates_failed": count("uniqueness.candidates_failed"),
        "io.bytes_written": count("io.bytes_written", "B"),
        "io.write_s": metric(sum(v["self_s"] for k, v in names.items()
                                 if k.startswith("io.write_")), "s"),
        "process.cpu_s": metric(statistics.median(r.cpu_s for r in rounds), "s"),
        "process.warnings": metric(sum(summary["warnings"].values()), "count"),
        "trace.overhead_s": metric(traced_wall - statistics.median(r.wall_s for r in rounds),
                                   "s"),
    })
    return m


def trace_report(summary: dict) -> list:
    """Readable lines: stage coverage (flagging > 1 s under 90 %), top self times,
    warnings by location."""
    lines = []
    for stage, st in summary["stages"].items():
        share = st["covered_s"] / st["seconds"] if st["seconds"] > 0 else 0.0
        flag = "  LOW COVERAGE" if st["seconds"] > 1.0 and share < 0.9 else ""
        top = ", ".join(f"{n} {s:.2f} s/{st['calls'][n]} calls" for n, s in st["top_self"])
        lines.append(f"stage {stage}: {st['seconds']:.2f} s, wrapped calls cover "
                     f"{100 * share:.1f} %, untraced {st['seconds'] - st['covered_s']:.3f} s"
                     f"{flag}; top self: {top}")
    for where, n in sorted(summary["warnings"].items()):
        lines.append(f"warning x{n}: {where}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="LAGFLOW_THREADS for the child (default: min(2, nproc))")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    root = Path.cwd()
    if not (root / "src" / "lagflow" / "cli.py").is_file():
        print(f"error: no src/lagflow/cli.py under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    threads = args.threads or default_threads()
    if not 1 <= threads <= len(os.sched_getaffinity(0)):
        print(f"error: --threads must lie in [1, nproc], got {threads}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds = []
        while True:
            rounds.append(run_round(root, work, f"round{len(rounds)}", wl, args.seed,
                                    threads, deadline))
            elapsed = time.perf_counter() - t_start
            last = rounds[-1].wall_s
            if elapsed >= args.seconds or elapsed + last * (1 + 2 * args.trace) > RUN_LIMIT_S:
                break
        traced = None
        if args.trace:
            trace_path = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.npz"
            trace_path.unlink(missing_ok=True)
            traced = run_round(root, work, "traced", wl, args.seed, threads, deadline,
                               trace_path)
        ops = [op for r in rounds + ([traced] if traced else []) for op in r.ops]
        # rounds at one seed must write byte-identical CSVs, traced or not
        for i, r in enumerate(rounds[1:] + ([traced] if traced else []), start=1):
            ops.append((f"determinism.round{i}", r.digests == rounds[0].digests, ""))
        if traced:
            summary = tracer.summarize(trace_path)
            metrics = layer_metrics(summary, rounds, traced.wall_s)
            for line in trace_report(summary):
                print(line)
        else:
            metrics = end_to_end_metrics(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if not op[1])
    correct = all(passed for name, passed, _ in ops
                  if name.startswith(("check.", "determinism.")))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds = {len(rounds)}, operations = {len(ops)}, failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
