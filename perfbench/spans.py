"""Span tracing of the seven prymbn layers, from outside the package.

``Tracer.install`` replaces every public function of a layer module with a
wrapper that records one span per call, under every name the function is
looked up by: ``cli`` imports ``solve_unique`` by name and ``verify``
imports ``staircase`` by name, so patching only the defining module would
miss those calls.  Classes, methods, properties and generator functions are
left alone; their cost is charged to the calling layer.

Spans are kept in flat arrays (name, parent, start, end, size) in the order
they start and are only turned into per-layer numbers, or written out,
after the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from fractions import Fraction
from functools import wraps
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence

from oracle import SUITES

PACKAGE = "prymbn"
LAYERS = ("cli", "bn_numerics", "theta_ring", "formulas", "lagrangian", "limit_series", "verify")
ENGINE = ("lagrangian.q_tilde", "lagrangian.p_tilde", "lagrangian.lagrangian_class_pointed")
SHORT_MAX = 6  # partitions up to this length count as short


def layer_modules() -> List:
    return [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]


def _bits(value) -> int:
    """Bit length of the numerators and denominators in a formulas result."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, int):
        return value.bit_length()
    if hasattr(value, "coeffs"):
        return sum(_bits(c) for c in value.coeffs)
    return _bits(value.coeff)


class Tracer:
    """Records spans of wrapped layer functions, plus a few work counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("l")  # partition length of an engine call, else -1
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: List[tuple] = []

    # --- recording -------------------------------------------------------

    def _observer(self, name: str) -> Callable | None:
        if name in ENGINE:
            def engine(sid, args, result):
                arg = args[0]
                self.size[sid] = len(arg.parts) if hasattr(arg, "parts") else len(arg)
            return engine
        if name == "limit_series.enumerate_candidates":
            def candidates(sid, args, result):
                p = args[0]
                self.counters["limit_series.candidates"] += len(result)
                if p.s >= 0:
                    self.counters["limit_series.search_space"] += comb(p.degree + 1, p.r + 1)
            return candidates
        if name.startswith("formulas."):
            def coeff_bits(sid, args, result):
                self.counters["formulas.coeff_bits"] += _bits(result)
            return coeff_bits
        if name.startswith("verify.suite_"):
            def cases(sid, args, result):
                self.counters["verify.cases"] += result.cases
            return cases
        return None

    def wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        nid = len(self.names)
        self.names.append(name)
        observe = self._observer(name)
        names, parents, starts, ends, sizes, stack = (
            self.name, self.parent, self.start, self.end, self.size, self._stack)

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            sizes.append(-1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(sid, args, result)
            return result

        return traced

    def install(self, modules: Sequence) -> None:
        """Wrap each public layer function under every name it is looked up by."""
        own = {m.__name__ for m in modules}
        wrapped: Dict[Callable, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in own or inspect.isgeneratorfunction(value)):
                    continue
                if value not in wrapped:
                    wrapped[value] = self.wrap(value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --- analysis --------------------------------------------------------

    def layer_metrics(self, busy_s: float) -> Dict[str, float]:
        """Per-layer self time, calls and share of ``busy_s``, plus engine and suite figures."""
        self_s = self_times(self.parent, self.start, self.end)
        layer_of = [n.split(".", 1)[0] for n in self.names]
        busy: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        engine = {"short": [0.0, 0], "long": [0.0, 0]}
        suite_s: Dict[str, float] = defaultdict(float)
        max_length = 0
        for i, nid in enumerate(self.name):
            layer = layer_of[nid]
            busy[layer] += self_s[i]
            calls[layer] += 1
            size = self.size[i]
            p = self.parent[i]
            if size >= 0 and (p < 0 or layer_of[self.name[p]] != "lagrangian"):
                bucket = engine["short" if size <= SHORT_MAX else "long"]
                bucket[0] += self.end[i] - self.start[i]
                bucket[1] += 1
                max_length = max(max_length, size)
            name = self.names[nid]
            if name.startswith("verify.suite_"):
                suite_s[name[len("verify.suite_"):]] += self.end[i] - self.start[i]
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = busy[layer] * 1e3
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.share"] = busy[layer] / busy_s
        for kind, (total, n) in engine.items():
            out[f"lagrangian.ms_per_call.{kind}"] = total * 1e3 / n if n else 0.0
        out["lagrangian.max_length"] = max_length
        for key in ("limit_series.candidates", "limit_series.search_space",
                    "formulas.coeff_bits", "verify.cases"):
            out[key] = self.counters[key]
        for suite in SUITES:
            out[f"verify.suite_ms.{suite}"] = suite_s[suite] * 1e3
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzipped TSV; times are seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        request = array("l")
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for i, p in enumerate(self.parent):
                request.append(i if p < 0 else request[p])
                out.write(f"{i}\t{p}\t{request[i]}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in the order they started.  Children are clipped to
    their parent's interval and overlapping children are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # end of the children already counted, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
