"""Per-layer attribution for an in-process run of the CLI.

A layer is one module of leibalg.  `Tracer.install` wraps every public
module-level function and every public method (plain, class-, static- and
property getter) of every public class defined in a layer module, and
re-binds each attribute of every loaded leibalg module that holds the same
function object, so `from .algebra import lie_center` in another module is
traced too.  Scalar `Field` arithmetic is not a layer: it is too fine-grained
to wrap, so its time stays in the caller's self time.  Spans inside the
library (search nodes and the like) are not recorded here.

Spans are aggregated as they close instead of being kept: a layer's self time
is the time inside its calls minus the time inside the traced calls they
made.  Calls and a few argument-derived counts are tallied per function.
Every CLI command imports every layer in a fresh interpreter, so the
reported self time also adds, once per command, the module's own import time
as `python -X importtime` measures it (see `import_self_s`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import subprocess
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "documents", "algebra", "extensions", "isoclinism", "homology", "linalg")


def _rref_cells(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"linalg.rref_cells": m.nrows * m.ncols}


def _witness_found(args, kwargs, result):
    return {"isoclinism.witnesses": int(result is not None)}


# Counts derived from a call's arguments or result, keyed by qualified name.
HOOKS = {
    "linalg.rref": _rref_cells,
    "isoclinism.search_isoclinism": _witness_found,
}


def import_self_s(env):
    """Layer -> self import time of `import leibalg.cli` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import leibalg.cli"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    out = defaultdict(float)
    for line in proc.stderr.splitlines():
        fields = [part.strip() for part in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[0].isdigit() and fields[2].startswith("leibalg."):
            layer = fields[2].split(".")[1]
            if layer in LAYERS:
                out[layer] += int(fields[0]) / 1e6
    return out


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # layer -> self time in traced calls
        self.import_s = defaultdict(float)  # layer -> import self time, summed over commands
        self.inclusive_s = defaultdict(float)  # qualified name -> time inside
        self.calls = Counter()  # qualified name -> calls
        self.counts = Counter()  # hook counters
        self._stack = []  # per open span: time spent in traced children
        self._restore = []  # (owner, attribute, original value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        stack, perf = self._stack, time.perf_counter
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spent = perf() - start
                children = stack.pop()
                if stack:
                    stack[-1] += spent
                self.self_s[layer] += spent - children
                self.inclusive_s[qualname] += spent
                self.calls[qualname] += 1
                if hook is not None:
                    self.counts.update(hook(args, kwargs, result))

        return traced

    def _targets(self, layer):
        """(owner, attribute, original, replacement) for one layer module."""
        module = importlib.import_module(f"leibalg.{layer}")
        out = []
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                out.append((module, name, value, self._wrap(value, layer, f"{layer}.{name}")))
            elif inspect.isclass(value):
                for attr, raw in vars(value).items():
                    if attr.startswith("_"):
                        continue
                    qual = f"{layer}.{name}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(raw.__func__, layer, qual))
                    elif isinstance(raw, property) and raw.fget is not None:
                        new = property(self._wrap(raw.fget, layer, qual), raw.fset, raw.fdel, raw.__doc__)
                    elif inspect.isfunction(raw):
                        new = self._wrap(raw, layer, qual)
                    else:
                        continue
                    out.append((value, attr, raw, new))
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in LAYERS:
            for owner, attr, original, new in self._targets(layer):
                self._set(owner, attr, new)
                if inspect.isfunction(original):
                    replaced[id(original)] = (original, new)
        # re-bind names imported into other modules (and the package itself)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "leibalg" or mod_name.startswith("leibalg.")):
                continue
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self, traced_s, untraced_s):
        """Every per-layer metric, as name -> (value, unit)."""
        calls, inc = self.calls, self.inclusive_s
        derive = calls["isoclinism.derive_xi"]
        out = {f"{layer}.self_s": (self.self_s[layer] + self.import_s[layer], "s")
               for layer in LAYERS}
        out.update({
            "documents.parse_calls": (calls["documents.parse_algebra_json"], "count"),
            "documents.hash_calls": (calls["documents.algebra_hash"], "count"),
            "algebra.validate_s": (inc["algebra.validate"], "s"),
            "algebra.lie_commutator_calls": (calls["algebra.lie_commutator_of"], "count"),
            "algebra.lie_center_calls": (calls["algebra.lie_center"], "count"),
            "algebra.ideal_closure_calls": (calls["algebra.ideal_closure"], "count"),
            "extensions.canonical_extension_calls": (calls["extensions.canonical_extension"], "count"),
            "extensions.commutator_map_calls": (calls["extensions.commutator_map"], "count"),
            "isoclinism.search_calls": (calls["isoclinism.search_isoclinism"], "count"),
            "isoclinism.invariants_calls": (
                calls["isoclinism.IsoclinismInvariants.from_extension"], "count"),
            "isoclinism.derive_xi_calls": (derive, "count"),
            "isoclinism.witness_ratio": (
                self.counts["isoclinism.witnesses"] / derive if derive else 0.0, "ratio"),
            "linalg.rref_calls": (calls["linalg.rref"], "count"),
            "linalg.rref_s": (inc["linalg.rref"], "s"),
            "linalg.rref_cells": (self.counts["linalg.rref_cells"], "count"),
            "trace.unattributed_s": (traced_s - sum(self.self_s.values()), "s"),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        })
        return out
