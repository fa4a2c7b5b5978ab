"""Run configuration and the check-report structures shared by all commands.

Structured output is one JSON document per run with lower_snake_case keys;
numeric deviations are carried as decimal strings so reports stay diffable
and round-trip byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._frozen import _Frozen, _Value

# Upper limit on --trials.  At the ceiling the per-trial fidelity and
# residual arrays of a simulation take 160 MB; far above it they could not
# be allocated at all.
MAX_TRIALS = 10_000_000


class RunConfig(_Frozen):
    __slots__ = ("seed", "trials", "tol", "fmt", "out")

    def __init__(self, seed: int, trials: int, tol: float | None, fmt: str,
                 out: Path | None) -> None:
        if not 1 <= trials <= MAX_TRIALS:
            raise ValueError(f"trials must be between 1 and {MAX_TRIALS}")
        if tol is not None and (not math.isfinite(tol) or tol <= 0):
            raise ValueError("tolerance must be positive and finite")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self._init(seed, trials, tol, fmt, out)


class CheckRecord(_Value):
    """``anchor`` is the stable name of the identity or claim checked."""

    __slots__ = ("check_id", "anchor", "passed", "max_deviation", "witness")

    def __init__(self, check_id: str, anchor: str, passed: bool,
                 max_deviation: float | None, witness: str | None = None) -> None:
        self._init(check_id, anchor, passed, max_deviation, witness)


class SuiteReport(_Frozen):
    __slots__ = ("suite", "seed", "trials", "records", "wall_time_s")

    def __init__(self, suite: str, seed: int, trials: int,
                 records: tuple[CheckRecord, ...], wall_time_s: float) -> None:
        self._init(suite, seed, trials, records, wall_time_s)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _deviation_str(value: float | None) -> str | None:
    return None if value is None else str(float(value))


def to_structured(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "seed": report.seed,
        "trials": report.trials,
        "overall": "pass" if report.passed else "fail",
        "checks": [
            {
                "check_id": r.check_id,
                "anchor": r.anchor,
                "verdict": "pass" if r.passed else "fail",
                "max_deviation": _deviation_str(r.max_deviation),
                "witness": r.witness,
            }
            for r in report.records
        ],
        "wall_time_s": report.wall_time_s,
    }


def serialize(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def to_text(report: SuiteReport) -> str:
    lines = [f"suite: {report.suite}   seed: {report.seed}   trials: {report.trials}"]
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        dev = "" if r.max_deviation is None else f"  deviation={r.max_deviation:.3e}"
        lines.append(f"  {status}  {r.check_id}  [{r.anchor}]{dev}")
        if r.witness:
            for wline in r.witness.splitlines():
                lines.append(f"          {wline}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}"
                 f"   wall_time_s: {report.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"


def render(report: SuiteReport, fmt: str) -> str:
    if fmt == "text":
        return to_text(report)
    return serialize(to_structured(report))


def write_output(content: str, out: Path | None) -> None:
    if out is None:
        print(content, end="")
    else:
        Path(out).write_text(content)
