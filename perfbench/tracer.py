"""Outside-in span tracer for the holevo2q benchmark.

The tracer never edits the package.  It replaces each target function, by
object identity, in every ``holevo2q.*`` module namespace that holds it
(``cli`` imports names directly, so patching only the defining module would
miss its calls), and it wraps ``evaluate`` on every model family class.
``scipy.optimize.minimize`` is patched by an import hook installed before
``holevo2q`` is imported, so the hook works whether the package imports
scipy eagerly or lazily, and without loading scipy itself.

Spans are kept in memory as ``(name_index, start_ns, end_ns, parent, err)``
tuples and aggregated or written out only when the traced call has returned.
A target that a later version of the package removes is simply not found: it
reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import pkgutil
import statistics
import sys
import time

# Layer name -> (module, attribute).  ``models.evaluate`` is the family
# classes' method and is found by scanning classes, not by attribute.
TARGETS = {
    "models.evaluate": None,
    "fisher.fisher_bundle": ("holevo2q.fisher", "fisher_bundle"),
    "bounds.holevo_bound": ("holevo2q.bounds", "holevo_bound"),
    "bounds.weight_from_angles": ("holevo2q.bounds", "weight_from_angles"),
    "bounds.boundary_weight_family": ("holevo2q.bounds", "boundary_weight_family"),
    "classify.classify_point": ("holevo2q.classify", "classify_point"),
    "oracle.minimize_holevo_2d": ("holevo2q.oracle", "minimize_holevo_2d"),
    "oracle.minimize_holevo_6d": ("holevo2q.oracle", "minimize_holevo_6d"),
    "oracle.sld_operators": ("holevo2q.oracle", "sld_operators"),
    "oracle.rld_operators": ("holevo2q.oracle", "rld_operators"),
    "oracle.operator_fisher": ("holevo2q.oracle", "operator_fisher"),
    "oracle.commutation_operator": ("holevo2q.oracle", "commutation_operator"),
    "cli.main": ("holevo2q.cli", "main"),
    "cli.build_parser": ("holevo2q.cli", "build_parser"),
    "cli._bounds_record": ("holevo2q.cli", "_bounds_record"),
    "cli._record_csv_fields": ("holevo2q.cli", "_record_csv_fields"),
    "cli._emit_csv": ("holevo2q.cli", "_emit_csv"),
}
NELDER_MEAD = "oracle.nelder_mead"
FUNCTION_STATS = ("calls", "self_s", "total_s", "p50_us", "p99_us", "errors")
BRANCHES = ("rld", "correction", "boundary")


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after ``name`` is first executed."""

    def __init__(self, name: str, patch):
        self.name = name
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class Tracer:
    def __init__(self):
        self.names = list(TARGETS) + [NELDER_MEAD]
        self.spans: list = []
        self.stack: list[int] = []
        self.branches = dict.fromkeys(BRANCHES, 0)
        self.nfev = 0

    def hook_scipy(self) -> None:
        """Count Nelder-Mead calls and ``nfev``; call before importing holevo2q."""

        def patch(module):
            module.minimize = self._wrap(NELDER_MEAD, module.minimize, self._note_nfev)

        if "scipy.optimize" in sys.modules:
            patch(sys.modules["scipy.optimize"])
        else:
            sys.meta_path.insert(0, _PatchOnImport("scipy.optimize", patch))

    def _note_nfev(self, result) -> None:
        self.nfev += int(getattr(result, "nfev", 0))

    def _note_branch(self, report) -> None:
        label = getattr(getattr(report, "branch", None), "value", None)
        if label in self.branches:
            self.branches[label] += 1

    def _wrap(self, name: str, fn, on_result=None):
        fid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            err = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                err = 0
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, err)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def instrument(self) -> None:
        """Wrap every target in every loaded ``holevo2q`` module.

        Imports all submodules first, so that a module the package loads
        lazily is wrapped too.
        """
        pkg = importlib.import_module("holevo2q")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"holevo2q.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "holevo2q" or n.startswith("holevo2q.")]

        for name, where in TARGETS.items():
            if where is None:
                continue
            original = getattr(sys.modules.get(where[0]), where[1], None)
            if original is None:
                continue
            on_result = self._note_branch if name == "bounds.holevo_bound" else None
            wrapper = self._wrap(name, original, on_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        seen = set()
        for module in modules:
            for value in list(vars(module).values()):
                if (isinstance(value, type) and value not in seen
                        and value.__module__.startswith("holevo2q")
                        and callable(value.__dict__.get("evaluate"))):
                    seen.add(value)
                    value.evaluate = self._wrap("models.evaluate", value.evaluate)

    def summary(self) -> dict:
        """Per-name calls, errors, self and inclusive time, p50/p99 duration."""
        n = len(self.names)
        child = [0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = [[] for _ in range(n)]
        self_ns = [0] * n
        errors = [0] * n
        for index, (fid, start, end, _, err) in enumerate(self.spans):
            durations[fid].append(end - start)
            self_ns[fid] += end - start - child[index]
            errors[fid] += err
        out = {}
        for fid, name in enumerate(self.names):
            d = sorted(durations[fid])
            out[name] = {
                "calls": len(d),
                "self_s": self_ns[fid] * 1e-9,
                "total_s": sum(d) * 1e-9,
                "p50_us": statistics.median(d) * 1e-3 if d else 0.0,
                "p99_us": d[min(len(d) - 1, int(0.99 * len(d)))] * 1e-3 if d else 0.0,
                "errors": errors[fid],
            }
        out[NELDER_MEAD]["nfev"] = self.nfev
        return {"functions": out, "branches": dict(self.branches)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,err\n")
            for fid, start, end, parent, err in self.spans:
                fh.write(f"{self.names[fid]},{start},{end},{parent},{err}\n")
