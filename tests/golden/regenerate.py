"""Rewrite the golden reports that ``tests/test_golden.py`` compares against,
and print each value that moved.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

A golden report is the structured report of one command, less its
``wall_time_s``, with the command's exit code under ``exit_code``.
``roundtrips.json`` holds, for each simulation at each seed, the SHA-256 of
its per-trial fidelities and residuals, so that a last-bit change in any trial
shows, not only in the printed minimum and maximum.  ``environment.json``
records the Python, numpy, BLAS and CPU that made them.
Each field that differs from the file it replaces is printed, under the
file's name, as ``check_id.field: old -> new``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from hqec import cli, codes
from hqec.sampling import rng_for

GOLDEN = Path(__file__).resolve().parent
ENVIRONMENT = "environment.json"
ROUNDTRIPS = "roundtrips.json"
SIMULATIONS = ("r3", "h3", "shor9")
SEEDS = (0, 7)

# file name: the command line it records
COMMANDS = {
    f"{command}-{target}-seed{seed}.json": [
        command, target, "--seed", str(seed), "--trials", "1000",
        "--format", "structured"]
    for command, target in (("verify", "all"),
                            *(("simulate", code) for code in SIMULATIONS))
    for seed in SEEDS
}


def run(argv: list[str]) -> dict:
    """The golden report of one command line, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = cli.main(argv)
    doc = json.loads(out.getvalue())
    del doc["wall_time_s"]
    doc["exit_code"] = exit_code
    return doc


def roundtrip_digests() -> dict:
    """``code-seedS``: the SHA-256 of ``fidelities.tobytes() +
    residuals.tobytes()`` of the roundtrips ``hqec simulate code --seed S
    --trials 1000`` runs, drawn as ``cli.cmd_simulate`` draws them."""
    digests = {}
    for code_id in SIMULATIONS:
        _, family, build = cli.SIMULATION_SETUPS[code_id]
        cmap = build()
        draw = codes.combined_draw(cmap.code,
                                   codes.effective_error_basis(cmap.code, family))
        for seed in SEEDS:
            fidelities, residuals = codes.simulate(cmap, draw, rng_for(seed, 501), 1000)
            digests[f"{code_id}-seed{seed}"] = hashlib.sha256(
                fidelities.tobytes() + residuals.tobytes()).hexdigest()
    return digests


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What the printed deviations depend on besides the source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "cpu": _cpu_model()}


def moved(old: dict, new: dict):
    """(field, old value, new value) for each field in which two reports (or
    two environment records) differ: a top-level field by its key, a check's
    as ``check_id.field``, and a change in the list of check ids as
    ``checks``."""
    for key in dict.fromkeys([*old, *new]):
        if key != "checks" and old.get(key) != new.get(key):
            yield key, old.get(key), new.get(key)
    if "checks" not in old:
        return
    old_checks, new_checks = ({c["check_id"]: c for c in doc["checks"]}
                              for doc in (old, new))
    if list(old_checks) != list(new_checks):
        yield "checks", list(old_checks), list(new_checks)
    for check_id, old_check in old_checks.items():
        new_check = new_checks.get(check_id, old_check)
        for field in dict.fromkeys([*old_check, *new_check]):
            if old_check.get(field) != new_check.get(field):
                yield f"{check_id}.{field}", old_check.get(field), new_check.get(field)


def _write(name: str, doc: dict) -> None:
    path = GOLDEN / name
    old = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps(doc, indent=2) + "\n")
    if old is None:
        print(f"{name}: new")
        return
    changes = list(moved(old, doc))
    print(f"{name}: {len(changes)} moved")
    for field, before, after in changes:
        print(f"  {field}: {before} -> {after}")


def main() -> None:
    for name, argv in COMMANDS.items():
        _write(name, run(argv))
    _write(ROUNDTRIPS, roundtrip_digests())
    _write(ENVIRONMENT, environment())


if __name__ == "__main__":
    main()
