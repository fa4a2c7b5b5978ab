"""Benchmark for hqec: three workloads, each run as fresh processes.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Workloads are the commands a user runs (see ``expected.WORKLOADS``), always
with ``--trials 1000`` and the benchmark's seed passed as ``--seed``:

- ``verify-all``: ``hqec verify all``, the full machine-check;
- ``simulate-h3``: ``hqec simulate h3``, dominated by completing the
  1024-dimensional real correction operator;
- ``simulate-shor9``: ``hqec simulate shor9``, roundtrips streaming
  16384-dimensional states through the partial isometry.

``--trace 0`` runs rounds of fresh processes until ``--seconds`` have passed
(at least three rounds). A round runs the command once through
``hqec.cli.main`` (``wall_s``, ``peak_rss_mb``), then times ``import hqec``
plus the workload's correction-map builders (``setup_s``) in fresh
processes until set-up has had ``SETUP_SHARE`` of the command's time (at
least once). Each metric is the median over the run's processes. Every
report is gated against ``expected.py``; mismatching checks are counted in
``failed``.

``--trace 1`` alternates, for ``--seconds`` (at least once), the untraced
command and a traced run of the same command (``child.py traced``), and
reports the median of each per-layer metric, the tracing overhead and a
per-span summary. The traced report must equal the untraced one check for
check (replica check), so the per-layer figures describe the work behind
``wall_s``. Work counts must equal ``expected.expected_counts`` exactly in
every traced process.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it are for people: the
environment block, each metric's spread, and the failures found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from expected import EXPECTED_CHECKS, WORKLOADS, expected_counts, gate_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SRC = ROOT / "src" / "hqec"

TRIALS = 1000           # --trials of every command
MIN_SAMPLES = 3
SETUP_SHARE = 0.25      # set-up sampling time per round, as a share of wall_s
RUN_LIMIT_S = 170.0     # a run must end within 180 s, whatever --seconds says


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Children import hqec from this checkout's sources, and BLAS may use
    at most one thread per available core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts one child process at a time and keeps every run under the
    time limit; ``subprocess.run`` kills and reaps a child on timeout."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()

    def child(self, *args: str) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise TimeoutError("run time limit reached")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                              env=self.env, capture_output=True, text=True,
                              timeout=remaining)
        return proc, time.perf_counter() - start

    def cli(self, workload: str, seed: int, trials: int):
        """One fresh process running the command; returns (report, exit
        code, wall seconds, peak RSS in MiB)."""
        proc, wall = self.child("cli", workload, "--seed", str(seed),
                                "--trials", str(trials))
        try:
            report = json.loads(proc.stdout)
            rss_kb = int(proc.stderr.rsplit("maxrss_kb=", 1)[1])
        except (ValueError, IndexError) as exc:
            raise RuntimeError(f"{workload}: unreadable output "
                               f"(exit {proc.returncode}): {proc.stderr[-2000:]}") from exc
        return report, proc.returncode, wall, rss_kb / 1024.0

    def json_child(self, *args: str) -> dict:
        proc, _ = self.child(*args)
        if proc.returncode != 0:
            raise RuntimeError(f"child {args} failed (exit {proc.returncode}): "
                               f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# environment (printed for people, never gated)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, trials: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": nproc(),     # what child_env() gives every child
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_hqec_lines": sum(len(p.read_text().splitlines())
                              for p in sorted(SRC.glob("*.py"))),
        "seed": seed,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# runs


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.4f}  max {max(values):.4f}  n={len(values)}"


def _rounds(seconds: float, min_rounds: int):
    """Yield until another round, at the mean round time so far, would end
    after ``seconds``; always at least ``min_rounds`` rounds."""
    start = time.monotonic()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.monotonic() - start
        if done >= min_rounds and elapsed * (done + 1) / done > seconds:
            return


def end_to_end(runner: Runner, workload: str, seed: int, trials: int,
               seconds: float) -> tuple[dict, int, int, list[str]]:
    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    problems: list[str] = []
    map_bytes = expected_counts(workload, trials)["codes.correction_map_bytes"]
    n_checks = len(EXPECTED_CHECKS[workload])
    for _ in _rounds(seconds, MIN_SAMPLES):
        report, code, wall, rss = runner.cli(workload, seed, trials)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        found = gate_report(workload, report, code, seed, trials)
        attempted += n_checks
        failed += min(len(found), n_checks)
        problems.extend(found)
        # Set-up is short next to some commands (shor9); several samples
        # per round keep its median steady.
        setup_until = time.perf_counter() + SETUP_SHARE * wall
        while True:
            setup = runner.json_child("setup", workload)
            samples["setup_s"].append(setup["setup_s"])
            attempted += 1
            if setup["map_bytes"] != map_bytes:
                failed += 1
                problems.append(f"changed workload: set-up built "
                                f"{setup['map_bytes']} map bytes, expected {map_bytes}")
            if time.perf_counter() >= setup_until:
                break
    for name, values in samples.items():
        print(f"{name:<12} median {statistics.median(values):.4f}  {_spread(values)}")
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items()}
    print(f"checks_failed {failed} of {attempted} checks attempted")
    return metrics, attempted, failed, problems


PER_LAYER_UNITS = {"_s": "s", "_us": "us", "_bytes": "bytes"}
TIME_UNITS = ("s", "us")


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced(runner: Runner, workload: str, seed: int, trials: int,
           seconds: float) -> tuple[dict, int, int, list[str]]:
    n_checks = len(EXPECTED_CHECKS[workload])
    counts = expected_counts(workload, trials)
    layers: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    for _ in _rounds(seconds, 1):
        report, code, _, _ = runner.cli(workload, seed, trials)
        result = runner.json_child(
            "traced", workload, "--seed", str(seed), "--trials", str(trials))
        found = gate_report(workload, report, code, seed, trials)
        found_traced = gate_report(workload, result["report"], result["exit_code"],
                                   seed, trials)
        # Both reports' checks, each exact count and the replica check.
        attempted += 2 * n_checks + len(counts) + 1
        failed += min(len(found), n_checks) + min(len(found_traced), n_checks)
        problems.extend(found)
        problems.extend(f"traced: {p}" for p in found_traced)
        if result["report"]["checks"] != report["checks"]:
            failed += 1
            problems.append("replica check: the traced run's report differs "
                            "from the untraced command's report")
        layer = result["metrics"]
        for name, want in counts.items():
            if layer[name] != want:
                failed += 1
                problems.append(f"changed workload: {name} = {layer[name]}, "
                                f"expected {want}")
        # In-process times on both sides, so interpreter start-up cancels out.
        layer["trace_overhead_s"] = result["traced_s"] - report["wall_time_s"]
        layers.append(layer)

    print(f"last traced run: {'span':<34} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(result["spans"].items(),
                            key=lambda kv: -kv[1]["total_s"]):
        print(f"{name:<50} {row['calls']:>8} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f}")
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        # Counts repeat exactly (checked above); median_low keeps them whole.
        middle = statistics.median if _unit(name) in TIME_UNITS else statistics.median_low
        metrics[name] = {"value": middle(values), "unit": _unit(name)}
        print(f"{name:<32} median {metrics[name]['value']} {_unit(name)}  "
              f"{_spread(values)}")
    print(f"checks_failed {failed} of {attempted} checks attempted")
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hqec benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"hqec sources not found under {SRC.parent}", file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    print("environment: " + json.dumps(environment(args.seed, TRIALS)))
    print(f"workload: {args.workload}  seed: {args.seed}  trials: {TRIALS}  "
          f"trace: {args.trace}")
    if args.trace:
        metrics, attempted, failed, problems = traced(
            runner, args.workload, args.seed, TRIALS, args.seconds)
    else:
        metrics, attempted, failed, problems = end_to_end(
            runner, args.workload, args.seed, TRIALS, args.seconds)
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
