"""One benchmark process: run by ``run.py``, never imported by it.

Modes (each starts in a fresh interpreter, so import and set-up costs are
paid exactly as a user pays them):

- ``cli WORKLOAD --seed S --trials T``: the workload's command through the
  public entry point ``hqec.cli.main``, structured report on stdout. The
  process's peak resident memory follows on stderr as ``maxrss_kb=N``.
- ``setup WORKLOAD``: ``import hqec`` plus the workload's correction-map
  builders, timed in-process; prints JSON.
- ``traced WORKLOAD --seed S --trials T``: micro-probes of single layers,
  then the workload's command through ``hqec.cli.main`` with a span around
  every call into the package's public functions; prints JSON with the
  per-layer metrics, the report, the exact work counts and a per-span
  summary.

Nothing here imports numpy or hqec at module level, so the ``setup`` timer
starts before either is loaded.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from expected import WORKLOADS  # noqa: E402
from tracer import Tracer, map_bytes  # noqa: E402

SUITES = ("quaternion", "linalg", "codes", "dirac")


def cli_args(workload: str, seed: int, trials: int) -> list[str]:
    return [*WORKLOADS[workload], "--seed", str(seed), "--trials", str(trials),
            "--format", "structured"]


def _builders(workload: str):
    """The public builders whose maps the workload's command constructs,
    each with its completed and partial (``complete=False``) form."""
    from hqec import codes
    r3 = (codes.build_r3_correction,
          lambda: codes.build_r3_correction(complete=False))
    h3 = (lambda: codes.build_h3_correction("j"),
          lambda: codes.build_h3_correction("j", complete=False))
    # The nine-qubit map is never completed; its builder is already partial.
    shor9 = (codes.build_shor9_correction, codes.build_shor9_correction)
    return {"verify-all": (r3, h3, shor9), "simulate-h3": (h3,),
            "simulate-shor9": (shor9,)}[workload]


# ---------------------------------------------------------------------------
# modes


def mode_cli(workload: str, seed: int, trials: int) -> int:
    from hqec.cli import main
    code = main(cli_args(workload, seed, trials))
    sys.stdout.flush()
    print(f"maxrss_kb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}",
          file=sys.stderr)
    return code


def mode_setup(workload: str) -> int:
    start = time.perf_counter()
    import hqec  # noqa: F401
    maps = [complete() for complete, _ in _builders(workload)]
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s,
                      "map_bytes": sum(map_bytes(m) for m in maps)}))
    return 0


def _per_call_us(fn, batch: int, batches: int = 9) -> float:
    """Median over ``batches`` of the mean time of ``batch`` calls."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples) * 1e6


def run_probes(workload: str, seed: int) -> dict[str, float]:
    """Single-layer probes, untraced. The partial builds double as the
    source of the workload's largest map for the state-level probes."""
    from hqec import dirac, linalg, sampling

    synthesis_partial_s = 0.0
    for _, partial in _builders(workload):
        start = time.perf_counter()
        cmap = partial()
        synthesis_partial_s += time.perf_counter() - start
    # The last builder's map is the workload's largest state space.
    code = cmap.code
    amps = cmap.domain[0].amplitudes
    op = cmap.errors[1].op
    word = code.codewords[0]
    rng = sampling.rng_for(seed, 9001)
    q, h = sampling.random_quaternion(rng), sampling.random_quaternion(rng)
    e = sampling.random_unit_quaternion(rng)
    rotor = dirac.ErrorRotor(e.w, e.x, e.y, e.z)
    gm = dirac.majorana_set()
    return {
        "codes.synthesis_partial_s": synthesis_partial_s,
        "linalg.state_validate_us": _per_call_us(
            lambda: linalg.StateVector(code.field, cmap.total_sites, amps), 20),
        "linalg.apply_site_us": _per_call_us(
            lambda: linalg.apply_site(op, word), 50),
        "quaternion.mul_us": _per_call_us(lambda: q * h, 2000),
        "dirac.correspondence_us": _per_call_us(
            lambda: dirac.quaternion_correspondence(rotor, q, gm), 50),
    }


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile cut point (exclusive method, as statistics does)."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, float]:
    """Per-layer metrics from the traced workload's spans. Times are summed
    over the outermost spans of a layer, so nested calls count once; a layer
    the workload never calls reads 0. ``sampling.draw_us`` is the time in
    random draws per trial; ``codes.roundtrip_us`` and its p99 are taken over
    the individual roundtrip calls."""
    spans = tracer.spans

    def attrs(name: str, key: str, keep=lambda idx: True) -> int:
        return sum(s[4][key] for idx, s in enumerate(spans)
                   if s[0] == name and s[4] is not None and keep(idx))

    def is_builder(name: str) -> bool:
        return name.startswith("codes.build_") and name.endswith("_correction")

    roundtrips = tracer.durations("codes.roundtrip")
    out = {f"verify.{s}_s": tracer.total(lambda n, s=s: n == f"verify.{s}_suite")
           for s in SUITES}
    out.update({
        "report.render_s": tracer.total(lambda n: n == "report.render"),
        "codes.synthesis_s": tracer.total(is_builder),
        "codes.kl_check_s": tracer.total(lambda n: n == "codes.kl_check"),
        "codes.kl_table_entries": attrs(
            "codes.kl_check", "entries",
            lambda idx: not tracer.has_ancestor(idx, "codes.synthesize_correction")),
        "codes.effective_reps_s": tracer.total(
            lambda n: n == "codes.effective_representatives"),
        "codes.effective_errors_in": attrs("codes.effective_representatives", "errors_in"),
        "codes.effective_errors": attrs("codes.effective_representatives", "errors_out"),
        "codes.roundtrip_us": statistics.median(roundtrips) * 1e6,
        "codes.roundtrip_p99_us": _quantile(roundtrips, 99) * 1e6,
        "codes.roundtrips": len(roundtrips),
        "codes.correction_map_bytes": sum(
            s[4]["bytes"] for s in tracer.outermost(is_builder)),
        "linalg.complete_orthonormal_s": tracer.total(
            lambda n: n == "linalg.complete_orthonormal"),
        "linalg.completion_dim": attrs("linalg.complete_orthonormal", "dim"),
        "linalg.is_isometry_s": tracer.total(lambda n: n == "linalg.is_isometry"),
        "sampling.draw_us": tracer.total(lambda n: n.startswith("sampling.")) / trials * 1e6,
    })
    return out


def mode_traced(workload: str, seed: int, trials: int) -> int:
    from hqec import cli

    tracer = Tracer()
    tracer.instrument()
    start = time.perf_counter()
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            exit_code = cli.main(cli_args(workload, seed, trials))
    finally:
        traced_s = time.perf_counter() - start
        tracer.uninstrument()
    doc = json.loads(buf.getvalue())
    # Probed after the command, so the traced command starts as cold as the
    # untraced one it is compared with (trace_overhead_s).
    probes = run_probes(workload, seed)
    metrics = {**layer_metrics(tracer, trials), **probes}
    print(json.dumps({"traced_s": traced_s,
                      "exit_code": exit_code, "report": doc,
                      "metrics": metrics, "spans": tracer.summary()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "setup", "traced"))
    parser.add_argument("workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        return mode_cli(args.workload, args.seed, args.trials)
    if args.mode == "setup":
        return mode_setup(args.workload)
    return mode_traced(args.workload, args.seed, args.trials)


if __name__ == "__main__":
    sys.exit(main())
