"""Reachability guard: every statement of ``hqec`` earns its place.

One child interpreter, traced by ``sys.settrace`` from before ``import hqec``
(so module bodies count), runs every command through ``hqec.cli.main``:
``verify all`` across both trial blocks, ``verify dirac`` alone, the three
simulations, the three demos, each output format with and without ``--out``,
and every error exit; then the script entry through ``runpy``.  It prints the
``(file, line)`` pairs that ran.

Every statement of ``src/hqec`` (each ``ast.stmt`` but docstrings; a
decorated ``def`` starts at its first decorator) must then have run, be a
``raise``, sit in a block whose last statement is a ``raise`` (an input check
and the message it builds; only the innermost block counts), or be covered by
an entry of ``ALLOWLIST``.  An entry is keyed by ``module:qualname`` (the
whole function, none of whose statements runs) or by that and the text of a
branch's first statement (the rest of that branch, from there on); it names
one of four kinds and gives a one-line reason.  An entry that covers nothing,
or whose statements now run, fails the guard.
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MAX_ENTRIES = 36

# The child: install the tracer, then import and run every command.
_CHILD = r'''
import contextlib, io, json, os, runpy, sys, tempfile

package = os.path.join(sys.argv[1], "hqec") + os.sep
executed = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(package):
        return None
    lines = executed.setdefault(filename, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


sys.settrace(_trace)
from hqec import cli

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report")
    cheap = ["verify", "dirac", "--trials", "1"]
    commands = [
        ["verify", "all", "--trials", "513"],
        cheap,
        *(["simulate", code, "--trials", "129"] for code in ("r3", "h3", "shor9")),
        *(["demo", name] for name in cli.DEMOS),
        *([*cheap, "--format", fmt, *to] for fmt in ("text", "structured", "json")
          for to in ([], ["--out", out])),
        ["no-such-command"],
        ["verify", "dirac", "--trials", "0"],
        ["simulate", "r3", "--trials", "1", "--tol", "-1"],
        [*cheap, "--out", os.path.join(tmp, "missing", "report")],
        [*cheap, "--seed", "5"],
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in commands:
            cli.main(argv)
        os.environ["HQEC_SEED"] = "x"
        cli.main(cheap)
        del os.environ["HQEC_SEED"]
        sys.argv = ["hqec", *cheap]
        try:
            runpy.run_module("hqec.cli", run_name="__main__")
        except SystemExit:
            pass

sys.settrace(None)
json.dump({name: sorted(lines) for name, lines in executed.items()}, sys.stdout)
'''


KINDS = ("perfbench", "api", "input", "rare")

# What no command runs, and why it stays: "module:qualname" (the whole
# function) or ("module:qualname", "first statement of the branch") ->
# (kind, reason).  The kinds:
#   perfbench  read or traced by perfbench/, which pins it until perfbench changes
#   api        a public value-type protocol or lazy export that a named test uses
#   input      a supported input that no command passes; names its test
#   rare       a rare path; names its known-answer test
ALLOWLIST = {
    ("__init__:__getattr__", "from . import dirac"): (
        "api", "the lazy dirac exports (test_cli::test_each_dirac_export_is_the_dirac_object)"),
    "__init__:__dir__": (
        "api", "lists the lazy exports (test_cli::test_an_unknown_package_attribute_raises)"),
    "_frozen:_Frozen.__repr__": (
        "api", "records in error messages (test_records::test_repr_shows_the_public_fields)"),
    ("_frozen:_Value.__eq__", "return NotImplemented"): (
        "api", "another type (test_records::test_value_types_compare_and_hash_by_their_fields)"),
    "_frozen:_Value.__hash__": (
        "api", "test_records::test_equality_is_by_value_only_for_the_compared_types"),
    "codes:CombinedError.__init__": (
        "api", "the public constructor (test_codes::test_combined_error_is_the_sum_of_its_terms)"),
    "codes:CombinedError.apply": ("perfbench", "in tracer.TRACED_METHODS"),
    ("codes:_encoded_amplitudes", "if not np.isfinite(coeffs).all():"): (
        "input", "coefficients that need a coercion or overflow "
        "(test_codes::test_roundtrip_coerces_complex_typed_logical_coefficients)"),
    ("codes:CombinedError._corrupt", "_images(code, self.errors)"): (
        "input", "an error set last asked about another code "
        "(test_codes::test_combined_errors_of_checked_rows_equal_the_one_row_errors)"),
    ("codes:_error_amplitudes", "if op.matrix.shape != (state.dim, state.dim):"): (
        "input", "a LinearMap error "
        "(test_codes::test_roundtrip_matches_the_checked_twice_reference_bit_for_bit)"),
    ("codes:KLViolation.describe",
     'return (f"<w{self.l1}|{labels[self.p1]}^ {labels[self.p2]}|w{self.l2}> "'): (
        "rare", "a cross-term violation (test_codes::test_kl_violations_describe_their_values)"),
    ("codes:kl_check", "value = by_pair[p1, p2, l1, l2]"): (
        "rare", "a cross-term violation (test_codes::test_kl_negative_controls)"),
    "codes:CorrectionMap.operator": ("perfbench", "tracer.map_bytes reads it"),
    ("codes:CorrectionMap.isometry_deviation", "return 1.0"): (
        "rare", "a held perm that is no permutation "
        "(test_codes::test_held_isometry_check_agrees_with_the_dense_check)"),
    "codes:CorrectionMap.apply": ("perfbench", "in tracer.TRACED_METHODS"),
    "codes:_signed_matrix": ("perfbench", "CorrectionMap.operator builds it"),
    ("codes:roundtrip", "if not logical.any():"): (
        "rare", "the 2^-400 rescale "
        "(test_codes::test_roundtrip_of_tiny_logical_coefficients_keeps_its_verdict)"),
    ("codes:roundtrip",
     "amps = _error_amplitudes(error, StateVector._checked(field, n_sites, encoded))"): (
        "input", "a LinearMap error "
        "(test_codes::test_roundtrip_matches_the_checked_twice_reference_bit_for_bit)"),
    ("codes:roundtrip", "code_amps = np.zeros(len(block), dtype=block.dtype)"): (
        "input", "an error the map sends to zero "
        "(test_codes::test_roundtrip_of_an_error_outside_the_map_has_fidelity_zero)"),
    ("codes:roundtrip", "anc *= 2.0 ** -power"): (
        "rare", "the 2^-400 rescale "
        "(test_codes::test_roundtrip_of_tiny_logical_coefficients_keeps_its_verdict)"),
    ("dirac:match_up_to_sign", "return SignedMatch(name, None, min(plus, minus), plus)"): (
        "rare", "neither sign matches (test_dirac::test_match_up_to_sign_with_neither_sign)"),
    ("linalg:_coerce", "if np.abs(arr.imag).max(initial=0.0) > 0:"): (
        "input", "a complex array over a real field (test_linalg::test_state_validation)"),
    ("linalg:_field_amplitudes", "amps = _coerce(field, amps)"): (
        "input", "an array of another dtype "
        "(test_codes::test_roundtrip_coerces_complex_typed_logical_coefficients)"),
    ("linalg:StateVector.__post_init__", "amps = _coerce(self.field, values)"): (
        "input", "a list or an array of another dtype (test_linalg::test_state_validation)"),
    "linalg:LinearMap.apply": ("perfbench", "in tracer.TRACED_METHODS"),
    "linalg:LinearMap._amplitudes": (
        "input", "a LinearMap error "
        "(test_codes::test_roundtrip_matches_the_checked_twice_reference_bit_for_bit)"),
    "quaternion:Quaternion.__add__": (
        "api", "the tests' scalar oracle (test_quaternion, conftest._close)"),
    "quaternion:Quaternion.__neg__": (
        "api", "the tests' scalar oracle (test_quaternion::test_unit_table)"),
    ("quaternion:Quaternion.__mul__", "return NotImplemented"): (
        "api", "q * 2.0 raises TypeError (test_quaternion::test_only_quaternions_multiply)"),
    "quaternion:Quaternion.scaled": ("perfbench", "run_probes, through normalized"),
    "quaternion:Quaternion.normalized": ("perfbench", "run_probes, through random_unit_quaternion"),
    "quaternion:ImaginaryVector.to_quaternion": (
        "api", "the tests' scalar oracle (test_quaternion, conftest._close)"),
    "sampling:random_quaternion": ("perfbench", "run_probes calls it"),
    "sampling:random_unit_quaternion": ("perfbench", "run_probes calls it"),
    ("verify:_normal_rows", "while True:"): (
        "rare", "a redrawn row "
        "(test_quaternion::test_a_redrawn_row_comes_from_the_redraw_stream)"),
    ("verify:linalg_suite", 'witness = "dependent input was not rejected"'): (
        "rare", "a completion that accepts dependent input "
        "(test_linalg::test_linalg_suite_fails_a_completion_that_accepts_dependent_input)"),
}


def start_child(src: Path) -> subprocess.Popen:
    """The traced child on ``src/hqec``, started."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("HQEC_SEED", None)
    env["OPENBLAS_NUM_THREADS"] = "1"       # two children share the cores
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(src)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def executed_lines(child: subprocess.Popen) -> dict[str, set[int]]:
    """The lines that a started child ran, by module name."""
    out, err = child.communicate()
    assert child.returncode == 0, err
    return {Path(name).stem: set(lines) for name, lines in json.loads(out).items()}


class Statement:
    """One statement: the ``module:qualname`` of the body it runs in, the
    statement list that holds it, its lines and its first line's text."""

    def __init__(self, node: ast.stmt, function: str, block: list, text: str) -> None:
        self.node, self.function, self.block, self.text = node, function, block, text
        first = node.decorator_list[0] if getattr(node, "decorator_list", None) else node
        self.lines = range(first.lineno, node.end_lineno + 1)

    def in_raise_block(self) -> bool:
        return isinstance(self.node, ast.Raise) or isinstance(self.block[-1], ast.Raise)

    def branch(self) -> set[int]:
        """The ids of this statement, the statements after it in its block,
        and every statement inside them."""
        rest = self.block[self.block.index(self.node):]
        return {id(n) for node in rest for n in ast.walk(node) if isinstance(n, ast.stmt)}


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[Statement]:
    """Every statement of one module but docstrings, in source order."""
    source = path.read_text()
    lines = source.splitlines()
    found = []

    def walk(block: list, qualname: str, may_hold_docstring: bool) -> None:
        for index, node in enumerate(block):
            if index == 0 and may_hold_docstring and _is_docstring(node):
                continue
            found.append(Statement(node, f"{path.stem}:{qualname}", block,
                                   lines[node.lineno - 1].strip()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if qualname == "<module>" else f"{qualname}.{node.name}"
                walk(node.body, inner, True)
                continue
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, []), qualname, False)
            for handler in getattr(node, "handlers", []):
                walk(handler.body, qualname, False)

    walk(ast.parse(source).body, "<module>", True)
    return found


class Audit:
    """The statements of ``package`` that need an allowlist entry and have
    none (``unexcused``), and the entries that cover none of them or whose
    function now runs (``stale``)."""

    def __init__(self, package: Path, executed: dict[str, set[int]], allowlist) -> None:
        unrun, self.reached = [], set()
        for path in sorted(package.glob("*.py")):
            ran = executed.get(path.stem, set())
            for stmt in statements(path):
                if ran.isdisjoint(stmt.lines):
                    if not stmt.in_raise_block():
                        unrun.append(stmt)
                else:
                    self.reached.add(stmt.function)
        unrun_ids, excused, self.stale = {id(s.node) for s in unrun}, set(), []
        for key in allowlist:
            if isinstance(key, str):
                covered = set() if key in self.reached else {
                    id(s.node) for s in unrun if s.function == key}
            else:
                covered = set().union(*(s.branch() for s in unrun
                                        if (s.function, s.text) == key))
            if not covered & unrun_ids:
                self.stale.append(key)
            excused |= covered
        self.unexcused = [s for s in unrun if id(s.node) not in excused]

    def report(self) -> str:
        """Each unexcused statement as ``module:qualname: <statement>``,
        grouped by function, with the allowlist key that would cover each
        branch; then the stale entries."""
        groups = defaultdict(list)
        for stmt in self.unexcused:
            groups[stmt.function].append(stmt)
        out = []
        for function, stmts in groups.items():
            if function in self.reached:
                keys, covered = [], set()
                for stmt in stmts:
                    if id(stmt.node) not in covered:
                        keys.append((function, stmt.text))
                        covered |= stmt.branch()
            else:
                keys = [function]
            out.append(f"{function} (allowlist key to add: "
                       f"{', '.join(map(repr, keys))})")
            out.extend(f"  {s.function}: {s.text}" for s in stmts)
        if self.stale:
            out.append("stale allowlist entries (nothing unrun left to cover):")
            out.extend(f"  {key!r}" for key in self.stale)
        return "\n".join(out)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The lines the commands run on ``src/hqec``, and the package and lines
    of a copy with a function planted that no command calls; the two
    children run at once."""
    planted = tmp_path_factory.mktemp("planted")
    shutil.copytree(SRC / "hqec", planted / "hqec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(planted / "hqec" / "codes.py", "a") as module:
        module.write("\n\ndef _planted():\n    return 1\n")
    children = start_child(SRC), start_child(planted)
    return executed_lines(children[0]), (planted / "hqec", executed_lines(children[1]))


def test_every_statement_runs_or_is_excused(runs):
    audit = Audit(SRC / "hqec", runs[0], ALLOWLIST)
    assert not audit.unexcused and not audit.stale, "\n" + audit.report()


def test_the_allowlist_is_short_and_keyed_by_name():
    assert len(ALLOWLIST) <= MAX_ENTRIES
    modules = {path.stem for path in (SRC / "hqec").glob("*.py")}
    for key, (kind, reason) in ALLOWLIST.items():
        function = key if isinstance(key, str) else key[0]
        module, _, qualname = function.partition(":")
        assert module in modules and re.fullmatch(r"\w+(\.\w+)*", qualname), key
        assert isinstance(key, str) or (len(key) == 2 and key[1].strip() == key[1] != "")
        assert kind in KINDS and reason and "\n" not in reason, key
        for module, test in re.findall(r"(test_\w+)::(test_\w+)", reason):
            assert f"\ndef {test}(" in (TESTS / f"{module}.py").read_text(), key


# --- the guard itself -----------------------------------------------------------

def test_a_planted_function_is_named_with_its_key(runs):
    audit = Audit(*runs[1], ALLOWLIST)
    assert [(s.function, s.text) for s in audit.unexcused] == [("codes:_planted", "return 1")]
    assert audit.stale == []
    assert audit.report() == ("codes:_planted (allowlist key to add: 'codes:_planted')\n"
                              "  codes:_planted: return 1")


def test_a_stale_entry_fails_the_guard(runs):
    stale = {"quaternion:Quaternion.conj": ("api", "runs in every verify"),
             ("codes:roundtrip", "no such statement"): ("rare", "matches nothing")}
    audit = Audit(SRC / "hqec", runs[0], {**ALLOWLIST, **stale})
    assert audit.unexcused == []
    assert audit.stale == list(stale)
    assert "stale allowlist entries" in audit.report()


def test_a_return_ended_branch_needs_an_entry_in_a_raise_ended_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def check(x):\n"
        "    if x:\n"
        "        y = 1\n"
        "        return y\n"
        "    raise ValueError(x)\n")
    audit = Audit(tmp_path, {"mod": {1}}, {})
    assert [s.text for s in audit.unexcused] == ["y = 1", "return y"]
    assert audit.report() == ("mod:check (allowlist key to add: 'mod:check')\n"
                              "  mod:check: y = 1\n"
                              "  mod:check: return y")
    audit = Audit(tmp_path, {"mod": {1, 2, 5}}, {})
    assert audit.report().splitlines()[0] == \
        "mod:check (allowlist key to add: ('mod:check', 'y = 1'))"
