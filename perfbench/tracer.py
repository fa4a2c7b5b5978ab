"""In-memory spans around calls into hqec's public functions.

The package is traced from the outside and never edited: `Tracer.instrument`
replaces each public module-level function of the traced modules, in every
``hqec`` module namespace (and module-level dict) that holds it, with a
wrapper that opens a span. A few methods that carry the hot work get the
same treatment. `Tracer.uninstrument` puts the originals back.

A span records its name, start, end (``perf_counter_ns``) and the index of
the span that was open when it started, so self time and call trees can be
recovered when the run ends. All spans of one process share one trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("verify", "codes", "linalg", "sampling", "quaternion",
                  "dirac", "report")

# (module, class, method): methods whose calls are layer work in their own
# right (state validation, operator application, the quaternion product).
TRACED_METHODS = (
    ("linalg", "StateVector", "__post_init__"),
    ("linalg", "LinearMap", "apply"),
    ("codes", "CorrectionMap", "apply"),
    ("codes", "CombinedError", "apply"),
    ("quaternion", "Quaternion", "__mul__"),
)


def map_bytes(cmap) -> int:
    """Bytes held by a correction map's arrays: the completed operator (if
    any) plus the domain and image vectors of the partial isometry."""
    total = sum(v.amplitudes.nbytes for v in (*cmap.domain, *cmap.image))
    if cmap.operator is not None:
        total += cmap.operator.matrix.nbytes
    return total


def _effective_attrs(args, result):
    return {"errors_in": len(args[1]), "errors_out": len(result[0])}


# Counts recorded on a span from the call's arguments and result.
ANNOTATORS = {
    "codes.kl_check": lambda args, res: {"entries": int(res.table.size)},
    "linalg.complete_orthonormal": lambda args, res: {"dim": len(res)},
    "codes.effective_representatives": _effective_attrs,
    "codes.build_r3_correction": lambda args, res: {"bytes": map_bytes(res)},
    "codes.build_h3_correction": lambda args, res: {"bytes": map_bytes(res)},
    "codes.build_shor9_correction": lambda args, res: {"bytes": map_bytes(res)},
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index, attrs].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)
        enter, exit_ = self._enter, self._exit
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if annotate is not None:
                spans[idx][4] = annotate(args, result)
            return result

        return traced

    # -- instrumentation -----------------------------------------------------

    def instrument(self) -> None:
        """Wrap the public functions and traced methods of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "hqec" or n.startswith("hqec.")) and m is not None]
        replacements: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"hqec.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replacements[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacements:
                            self._set_item(obj, key, replacements[id(value)])
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"hqec.{short}"], cls_name)
            original = cls.__dict__[method]
            self._set(cls, method,
                      self.wrap(f"{short}.{cls_name}.{method}", original))

    def _set(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._originals.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstrument(self) -> None:
        for owner, key, value in reversed(self._originals):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._originals.clear()

    # -- analysis --------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Seconds of every span with this name, in start order."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, predicate) -> list[list]:
        """Spans matching ``predicate`` that have no matching ancestor, so
        nested calls of the same layer are not counted twice."""
        out = []
        for idx, span in enumerate(self.spans):
            if not predicate(span[0]):
                continue
            parent = span[3]
            while parent >= 0 and not predicate(self.spans[parent][0]):
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def total(self, predicate) -> float:
        """Seconds covered by the outermost spans matching ``predicate``."""
        return sum(s[2] - s[1] for s in self.outermost(predicate)) / 1e9

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds (total
        minus the time covered by direct children)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (span[2] - span[1]) / 1e9
            row["self_s"] += (span[2] - span[1] - child_ns[idx]) / 1e9
        return out
