"""The golden reports: ``hqec verify all`` and ``hqec simulate r3|h3|shor9``
at seeds 0 and 7 with 1000 trials, rerun in-process through ``cli.main`` and
compared with the files under ``tests/golden``.

Everything but the printed values (suite, seed, trials, overall verdict,
exit code, and each check's id, anchor, verdict and witness text) is compared
exactly everywhere.  The printed values (the deviations, the float reprs
inside a witness, and the digests of every simulated trial in
``roundtrips.json``) are compared exactly in the environment
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


# a float's repr inside a witness, such as 0.9999999999999998 or 2.5e-16
_FLOAT_REPR = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def _printed_value(field: str, old, new) -> bool:
    """Whether a moved field is a printed value: a deviation, or a witness
    whose text moved only in its float reprs."""
    if field.endswith(".max_deviation"):
        return True
    return (field.endswith(".witness") and None not in (old, new)
            and _FLOAT_REPR.sub("#", old) == _FLOAT_REPR.sub("#", new))


def assert_unmoved(golden: dict, got: dict, printed: bool) -> None:
    """The printed values of two reports, or every other field, exactly."""
    changes = [f"{field}: {old} -> {new}"
               for field, old, new in regenerate.moved(golden, got)
               if _printed_value(field, old, new) is printed]
    assert not changes, "moved:\n" + "\n".join(changes)


def skip_unless_recorded(recorded: dict, current: dict) -> None:
    """Skip the comparison unless ``current`` is the ``recorded`` environment."""
    differing = list(regenerate.moved(recorded, current))
    if differing:
        pytest.skip("printed values not compared: the environment differs in "
                    + "; ".join(f"{field} ({old!r} recorded, {new!r} here)"
                                for field, old, new in differing))


def assert_same_deviations(golden: dict, got: dict, recorded: dict,
                           current: dict) -> None:
    """The printed values, exactly, when ``current`` is the ``recorded``
    environment; otherwise the comparison is skipped."""
    skip_unless_recorded(recorded, current)
    assert_unmoved(golden, got, printed=True)


@pytest.mark.parametrize("name", _REPORTS)
def test_golden_verdicts(name):
    assert_unmoved(_golden(name), _rerun(name), printed=False)


@pytest.mark.parametrize("name", _REPORTS)
def test_golden_deviations(name):
    assert_same_deviations(_golden(name), _rerun(name),
                           _golden(regenerate.ENVIRONMENT), regenerate.environment())


def test_golden_roundtrips():
    skip_unless_recorded(_golden(regenerate.ENVIRONMENT), regenerate.environment())
    moved = list(regenerate.moved(_golden(regenerate.ROUNDTRIPS),
                                  regenerate.roundtrip_digests()))
    assert not moved, "moved:\n" + "\n".join(f"{f}: {a} -> {b}" for f, a, b in moved)


# --- the comparison itself ---------------------------------------------------------

def test_a_deviation_moved_by_one_ulp_is_reported():
    golden = _golden("simulate-h3-seed0.json")
    moved = copy.deepcopy(golden)
    check = next(c for c in moved["checks"] if c["max_deviation"] is not None)
    old = check["max_deviation"]
    new = check["max_deviation"] = str(float(np.nextafter(float(old), np.inf)))
    field = f"{check['check_id']}.max_deviation"
    assert list(regenerate.moved(golden, moved)) == [(field, old, new)]
    assert_unmoved(golden, moved, printed=False)
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
        assert_unmoved(golden, changed, printed=False)


def test_another_cpu_skips_the_deviations_and_names_the_cpu():
    golden = _golden("simulate-r3-seed0.json")
    env = _golden(regenerate.ENVIRONMENT)
    with pytest.raises(pytest.skip.Exception, match="differs in cpu "):
        assert_same_deviations(golden, golden, env, {**env, "cpu": "another"})


def _with_min_fidelity(golden: dict, witness: str) -> dict:
    changed = copy.deepcopy(golden)
    check = next(c for c in changed["checks"] if c["check_id"] == "roundtrip_min_fidelity")
    check["witness"] = witness
    return changed


def test_a_witness_value_moved_by_one_ulp_is_a_printed_value():
    golden = _golden("simulate-shor9-seed0.json")
    assert "min fidelity = 0.9999999999999998" in json.dumps(golden)
    moved = _with_min_fidelity(golden, "min fidelity = 0.9999999999999999")
    env = _golden(regenerate.ENVIRONMENT)
    assert_unmoved(golden, moved, printed=False)
    with pytest.raises(AssertionError, match="roundtrip_min_fidelity.witness"):
        assert_same_deviations(golden, moved, env, env)
    with pytest.raises(pytest.skip.Exception, match="differs in cpu "):
        assert_same_deviations(golden, moved, env, {**env, "cpu": "another"})


def test_a_changed_word_in_a_witness_with_a_value_is_reported_everywhere():
    golden = _golden("simulate-shor9-seed0.json")
    changed = _with_min_fidelity(golden, "max fidelity = 0.9999999999999998")
    # the comparison test_golden_verdicts makes in every environment
    with pytest.raises(AssertionError, match="roundtrip_min_fidelity.witness"):
        assert_unmoved(golden, changed, printed=False)
    assert_unmoved(golden, changed, printed=True)
