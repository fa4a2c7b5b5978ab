"""Command-line front end: verification suites, correction simulations, and
narrative demonstrations.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on usage
errors or when the report cannot be written.  The default seed can be set
through the environment variable ``HQEC_SEED``; an explicit ``--seed`` flag
wins.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import codes, quaternion as quat
from .report import (MAX_TRIALS, CheckRecord, RunConfig, SuiteReport, render,
                     write_output)
from .sampling import rng_for
from .verify import SUITE_RUNNERS

SEED_ENV_VAR = "HQEC_SEED"

SIMULATION_SETUPS = {
    "r3": ("plane rotations", codes.ErrorFamily.SO2,
           lambda: codes.build_r3_correction()),
    "h3": ("unit right multiplications", codes.ErrorFamily.SU2,
           lambda: codes.build_h3_correction()),
    "shor9": ("single-site Paulis", codes.ErrorFamily.PAULI_PER_SITE,
              lambda: codes.build_shor9_correction()),
}


def cmd_verify(target: str, cfg: RunConfig) -> SuiteReport:
    """Run the invariant suite(s) for one module or all of them."""
    start = time.perf_counter()
    records: list[CheckRecord] = []
    if target == "all":
        for name, runner in SUITE_RUNNERS.items():
            for rec in runner(cfg.seed, cfg.trials):
                records.append(CheckRecord(f"{name}/{rec.check_id}", rec.anchor,
                                           rec.passed, rec.max_deviation, rec.witness))
    else:
        records.extend(SUITE_RUNNERS[target](cfg.seed, cfg.trials))
    wall = time.perf_counter() - start
    return SuiteReport(f"verify-{target}", cfg.seed, cfg.trials,
                       tuple(records), wall)


def cmd_simulate(code_id: str, cfg: RunConfig) -> SuiteReport:
    """Build a code, its error basis and correction map, then run seeded
    roundtrips with random logical states and random in-family combinations."""
    start = time.perf_counter()
    fidelity_tol = cfg.tol if cfg.tol is not None else 1e-10
    family_name, family, build = SIMULATION_SETUPS[code_id]
    records: list[CheckRecord] = []
    try:
        cmap = build()
    except codes.SynthesisError as exc:
        records.append(CheckRecord("synthesis", "correction-map synthesis",
                                   False, None, str(exc)))
        wall = time.perf_counter() - start
        return SuiteReport(f"simulate-{code_id}", cfg.seed, cfg.trials,
                           tuple(records), wall)

    code = cmap.code
    basis = codes.effective_error_basis(code, family)
    kl = codes.kl_check(code, basis)
    dev = codes.kl_condition_deviation(kl)
    records.append(CheckRecord(
        "kl", f"correctability of {family_name}", kl.passed and dev <= 1e-12, dev))

    synth_dev = cmap.isometry_deviation()
    records.append(CheckRecord(
        "synthesis_isometric", "the correction operator preserves lengths",
        synth_dev <= 1e-10, synth_dev))

    fidelities, residuals = codes.simulate(
        cmap, codes.combined_draw(basis, code.field), rng_for(cfg.seed, 501),
        cfg.trials)
    min_fidelity = float(fidelities.min())
    max_residual = float(residuals.max())
    records.append(CheckRecord(
        "roundtrip_min_fidelity", "recovered logical state matches the input",
        abs(min_fidelity - 1.0) <= fidelity_tol, abs(min_fidelity - 1.0),
        f"min fidelity = {min_fidelity!r}"))
    records.append(CheckRecord(
        "max_factorization_residual",
        "output factors as (encoded state) x (ancilla superposition)",
        max_residual <= fidelity_tol, max_residual))
    wall = time.perf_counter() - start
    return SuiteReport(f"simulate-{code_id}", cfg.seed, cfg.trials,
                       tuple(records), wall)


def _demo_phase_failure(cfg: RunConfig) -> list[CheckRecord]:
    rep = codes.phase_failure_demo()
    a, b = rep.coeffs
    ia, ib = rep.mimic_coeffs
    records = [
        CheckRecord(
            "mimic_identification",
            "a single-site phase error produces another valid codeword",
            rep.match_residual <= 1e-12, rep.match_residual,
            f"encoding of ({a:.4f}, {b:.4f}) is mapped to the encoding of "
            f"({ia:.4f}, {ib:.4f})"),
        CheckRecord(
            "distinct_physical_state",
            "the mimic is not a global phase times the original",
            not rep.physically_equivalent, None,
            "no phase relates the two coefficient pairs (both amplitudes "
            "nonzero)"),
        CheckRecord(
            "kl_expected_fail",
            "expected negative: the correctability conditions reject the set",
            not rep.kl.passed, None,
            "; ".join(v.describe(rep.kl.labels) for v in rep.kl.violations[:1])),
    ]
    benign = codes.phase_failure_demo(1.0, 0.0)
    records.append(CheckRecord(
        "benign_edge_case", "with one amplitude zero the mimic is only a phase",
        benign.physically_equivalent, None,
        "logical (1, 0): corrupted state equals a phase times the original"))
    return records


def _demo_effective_count(cfg: RunConfig) -> list[CheckRecord]:
    b3 = codes.build_b3_code()
    singles = codes.ErrorSet(tuple(
        codes.ErrorTerm(f"{axis.upper()}@{site}", codes.pauli_error(axis, site))
        for site in range(3) for axis in ("x", "y", "z")))
    count = codes.count_effective_errors(b3, singles)
    classes = codes.effective_error_classes(b3, singles)
    grouping = "; ".join(
        "{" + ", ".join(singles.labels[i] for i in cls) + "}" for cls in classes)
    return [CheckRecord(
        "effective_count", "distinct code-space actions of the nine "
        "single-site Paulis", count == 7, float(abs(count - 7)),
        f"count = {count}: the three phase errors share one action; "
        f"classes: {grouping}")]


def _demo_hopf(cfg: RunConfig) -> list[CheckRecord]:
    lines = []
    for name, q in quat.UNITS.items():
        v = quat.hopf_project(q)
        lines.append(f"{name} -> ({v.x:+.0f}, {v.y:+.0f}, {v.z:+.0f})")
    rng = rng_for(cfg.seed, 502)
    dev = 0.0
    for _ in range(4):
        q = quat.Quaternion.from_array(rng.standard_normal(4))
        v = quat.hopf_project(q)
        dev = max(dev, abs(v.length() - 1.0))
        lines.append(f"random |q|={q.norm():.3f} -> "
                     f"({v.x:+.3f}, {v.y:+.3f}, {v.z:+.3f})")
    return [CheckRecord(
        "basis_projections", "projections of the basis and random quaternions "
        "land on the unit sphere", dev <= 1e-12, dev, "; ".join(lines))]


DEMOS = {
    "phase-failure": _demo_phase_failure,
    "effective-count": _demo_effective_count,
    "hopf": _demo_hopf,
}


def cmd_demo(name: str, cfg: RunConfig) -> SuiteReport:
    start = time.perf_counter()
    records = DEMOS[name](cfg)
    wall = time.perf_counter() - start
    return SuiteReport(f"demo-{name}", cfg.seed, cfg.trials, tuple(records), wall)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqec",
        description="Machine-checks for error correction over real, complex, "
                    "and quaternionic qubits.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"PRNG seed (default: ${SEED_ENV_VAR} or 0)")
    common.add_argument("--trials", type=int, default=1000,
                        help="randomized trials per check (default 1000, "
                             f"at most {MAX_TRIALS})")
    common.add_argument("--tol", type=float, default=None,
                        help="override the headline tolerance where applicable")
    common.add_argument("--format", choices=("text", "structured", "json"),
                        default="text", dest="fmt",
                        help="output format ('json' is an alias of 'structured')")
    common.add_argument("--out", type=Path, default=None,
                        help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a module's invariant suite")
    p_verify.add_argument("target", choices=(*SUITE_RUNNERS, "all"))
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="synthesize a correction map and run roundtrips")
    p_sim.add_argument("code", choices=tuple(SIMULATION_SETUPS))
    p_demo = sub.add_parser("demo", parents=[common],
                            help="run a narrative demonstration")
    p_demo.add_argument("name", choices=tuple(DEMOS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.seed is not None:
        seed = args.seed
    else:
        try:
            seed = int(os.environ.get(SEED_ENV_VAR, "0"))
        except ValueError:
            print(f"invalid {SEED_ENV_VAR} value", file=sys.stderr)
            return 2
    fmt = "structured" if args.fmt == "json" else args.fmt
    try:
        cfg = RunConfig(command=args.command, seed=seed, trials=args.trials,
                        tol=args.tol, fmt=fmt, out=args.out)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        report = cmd_verify(args.target, cfg)
    elif args.command == "simulate":
        report = cmd_simulate(args.code, cfg)
    else:
        report = cmd_demo(args.name, cfg)
    try:
        write_output(render(report, cfg.fmt), cfg.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
