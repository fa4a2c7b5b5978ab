"""Source guards on how verdicts read their tolerances.

Every comparison in ``hqec``, each record of ``verify`` and ``cli`` as well
as each check inside the library, is judged against a named module
constant, so no small float literal appears in a comparison there.  Every
parameter default of ``hqec`` is counted, so a new one has to name the caller
that sets it before this bound moves.  The bound is the count since the
spinor report functions, the ``isclose`` methods and the options that only
tests set were dropped.
"""

import ast
from pathlib import Path

import hqec

SRC = Path(hqec.__file__).resolve().parent
MAX_PARAMETER_DEFAULTS = 16


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_literal_tolerance_in_a_verdict():
    found = [f"{path.name}:{lit.lineno}: {lit.value!r}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_parse(path)) if isinstance(node, ast.Compare)
             for lit in ast.walk(node)
             if isinstance(lit, ast.Constant) and type(lit.value) is float
             and 0.0 < lit.value < 1e-6]
    assert found == []


def test_parameter_defaults_are_bounded():
    count = sum(len(node.args.defaults)
                + sum(d is not None for d in node.args.kw_defaults)
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(_parse(path))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    assert count <= MAX_PARAMETER_DEFAULTS
