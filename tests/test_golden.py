"""The golden reports: ``hqec verify all`` and ``hqec simulate r3|h3|shor9``
at seeds 0 and 7 with 1000 trials, rerun in-process through ``cli.main`` and
compared with the files under ``tests/golden``.

Everything but the printed deviations (suite, seed, trials, overall verdict,
exit code, and each check's id, anchor, verdict and witness) is compared
exactly everywhere.  The deviations are compared exactly in the environment
``tests/golden/environment.json`` records; anywhere else that comparison is
skipped, and the skip names the environment fields that differ.  A change
that moves a printed value reruns ``tests/golden/regenerate.py``, which
prints the moved values.
"""

import copy
import functools
import json
import re

import numpy as np
import pytest

from golden import regenerate

_REPORTS = list(regenerate.COMMANDS)


def _golden(name: str) -> dict:
    return json.loads((regenerate.GOLDEN / name).read_text())


@functools.cache
def _rerun(name: str) -> dict:
    return regenerate.run(regenerate.COMMANDS[name])


def assert_unmoved(golden: dict, got: dict, deviations: bool) -> None:
    """The printed deviations of two reports, or every other field, exactly."""
    changes = [f"{field}: {old} -> {new}"
               for field, old, new in regenerate.moved(golden, got)
               if field.endswith(".max_deviation") is deviations]
    assert not changes, "moved:\n" + "\n".join(changes)


def assert_same_deviations(golden: dict, got: dict, recorded: dict,
                           current: dict) -> None:
    """The printed deviations, exactly, when ``current`` is the ``recorded``
    environment; otherwise the comparison is skipped."""
    differing = list(regenerate.moved(recorded, current))
    if differing:
        pytest.skip("deviations not compared: the environment differs in "
                    + "; ".join(f"{field} ({old!r} recorded, {new!r} here)"
                                for field, old, new in differing))
    assert_unmoved(golden, got, deviations=True)


@pytest.mark.parametrize("name", _REPORTS)
def test_golden_verdicts(name):
    assert_unmoved(_golden(name), _rerun(name), deviations=False)


@pytest.mark.parametrize("name", _REPORTS)
def test_golden_deviations(name):
    assert_same_deviations(_golden(name), _rerun(name),
                           _golden(regenerate.ENVIRONMENT), regenerate.environment())


# --- the comparison itself ---------------------------------------------------------

def test_a_deviation_moved_by_one_ulp_is_reported():
    golden = _golden("simulate-h3-seed0.json")
    moved = copy.deepcopy(golden)
    check = next(c for c in moved["checks"] if c["max_deviation"] is not None)
    old = check["max_deviation"]
    new = check["max_deviation"] = str(float(np.nextafter(float(old), np.inf)))
    field = f"{check['check_id']}.max_deviation"
    assert list(regenerate.moved(golden, moved)) == [(field, old, new)]
    assert_unmoved(golden, moved, deviations=False)
    env = _golden(regenerate.ENVIRONMENT)
    with pytest.raises(AssertionError, match=re.escape(field)):
        assert_same_deviations(golden, moved, env, env)


def test_a_changed_witness_is_reported():
    golden = _golden("verify-all-seed0.json")
    changed = copy.deepcopy(golden)
    check = next(c for c in changed["checks"] if c["witness"] is not None)
    check["witness"] += "."
    field = f"{check['check_id']}.witness"
    with pytest.raises(AssertionError, match=re.escape(field)):
        assert_unmoved(golden, changed, deviations=False)


def test_another_cpu_skips_the_deviations_and_names_the_cpu():
    golden = _golden("simulate-r3-seed0.json")
    env = _golden(regenerate.ENVIRONMENT)
    with pytest.raises(pytest.skip.Exception, match="differs in cpu "):
        assert_same_deviations(golden, golden, env, {**env, "cpu": "another"})
