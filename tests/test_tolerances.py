"""Source guards on how verdicts read their tolerances.

Every comparison in ``hqec``, each record of ``verify`` and ``cli`` as well
as each check inside the library, is judged against a named module
constant, so no small float literal appears in a comparison there.  Every
parameter default of ``hqec`` is counted, so a new one has to name the caller
that sets it before this bound moves.  The bound is the count since the
spinor report functions, the ``isclose`` methods and the options that only
tests set (``sampling``'s ``normalize`` the last) were dropped, plus
``CheckRecord``'s ``witness``, which most checks omit.  No module
reads or writes a generator's ``bit_generator``: the seeded draws are plain
blocks of one kind of value per stream, so no draw is ever replayed by saving
and restoring its state.  Every public top-level function and class of
``hqec`` has a caller in the package or in the benchmark, so none is kept
alive by its own tests alone, and every exception class ``hqec`` defines is
raised somewhere in it, so none outlives the check that raised it.  No
module of ``hqec`` imports ``dataclasses``: generating the classes took about
10 ms of every process start.
"""

import ast
import builtins
from pathlib import Path

import hqec

SRC = Path(hqec.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MAX_PARAMETER_DEFAULTS = 14


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


def test_no_module_touches_the_generator_state():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_parse(path))
             if (isinstance(node, ast.Attribute) and node.attr == "bit_generator")
             or (isinstance(node, ast.Name) and node.id == "bit_generator")]
    assert found == []


def _uses(tree: ast.Module) -> dict[str, set[int]]:
    """For each name read as a bare name or an attribute, the indices of the
    top-level statements that read it; an import alias is not a read."""
    uses: dict[str, set[int]] = {}
    for index, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(index)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(index)
    return uses


def test_every_public_definition_has_a_caller_outside_the_tests():
    paths = [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.rglob("*.py"))]
    uses = {path: _uses(_parse(path)) for path in paths}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for index, node in enumerate(_parse(path).body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if uses[path].get(node.name, set()) - {index}:
                continue
            if not any(node.name in uses[other] for other in paths if other != path):
                unused.append(f"{path.name}: {node.name}")
    assert unused == []


def _name(node: ast.expr) -> str | None:
    """The name a bare name or an attribute reads, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_builtin_exception(name: str | None) -> bool:
    base = getattr(builtins, name or "", None)
    return isinstance(base, type) and issubclass(base, BaseException)


def test_every_exception_class_is_raised():
    trees = [_parse(path) for path in sorted(SRC.glob("*.py"))]
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions: set[str] = set()
    grew = True
    while grew:                  # subclasses of exception classes of hqec too
        found = {node.name for node in classes
                 if any(_is_builtin_exception(_name(b)) or _name(b) in exceptions
                        for b in node.bases)}
        grew = found != exceptions
        exceptions = found
    raised = {_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert exceptions and sorted(exceptions - raised) == []


def test_no_core_module_imports_dataclasses():
    # every module: those `import hqec` loads, dirac, which loads on first
    # use, and report, verify and cli, which every command process loads
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_parse(path))
             if (isinstance(node, ast.Import)
                 and any(a.name.partition(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").partition(".")[0] == "dataclasses")]
    assert found == []
