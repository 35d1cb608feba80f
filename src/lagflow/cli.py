"""Command-line entry point.

Exit codes: 0 all checks passed, 2 at least one check failed,
1 runtime/configuration error.  LAGFLOW_THREADS caps the native thread
pools (BLAS/OpenMP), which must happen before numerics start, and the
number of pipeline stages that run at once: above 1, paper-check runs its
independent stages in forked workers (pipeline._run_stages).  Unset, it
means 1.
"""

from __future__ import annotations

import argparse
import os
import sys

_SUBCOMMAND_STAGES = {
    "solve": {"solve"},
    "verify-norms": {"norms"},
    "weights": {"weights"},
    "advect": {"advect"},
    "picard": {"picard"},
    "probe-uniqueness": {"probe"},
    "paper-check": None,   # all stages
}


def _apply_thread_cap() -> int:
    """Validate LAGFLOW_THREADS, fill the unset native thread variables
    with it and return it (1 when unset)."""
    cap = os.environ.get("LAGFLOW_THREADS")
    if not cap:
        return 1
    try:
        n = int(cap)
        if n < 1:
            raise ValueError
    except ValueError:
        raise SystemExit(f"LAGFLOW_THREADS must be a positive integer, got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagflow",
        description="Periodic-box Navier-Stokes lab: mollified Leray solver, "
                    "Lagrangian flows with continuous forcing, Lusin-Lipschitz "
                    "weights, Picard rates, and uniqueness probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage(s) from a config file")
        p.add_argument("config", help="line-oriented 'section.key = value' file")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the summary table on stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cap = _apply_thread_cap()

    # heavy imports after the thread cap is in place
    from .config import ConfigError, parse_config
    from .pipeline import emit_summary, pipeline_paper_check

    try:
        cfg = parse_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        manifest = pipeline_paper_check(cfg, _SUBCOMMAND_STAGES[args.command], cap)
    except Exception as exc:  # runtime failure inside a stage
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(emit_summary(manifest))
    return 2 if manifest.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
