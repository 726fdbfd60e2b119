"""Spans and counts around imw's public functions, installed from outside.

``Tracer.install`` replaces each listed function in every ``imw`` module
namespace that binds it (and in module-level lists such as
``suite.CRITERIA``) by a wrapper that records a span: name, start, end,
parent span and the op it belongs to. ``uninstall`` puts the originals
back. Generator functions are timed inside each ``next()``, so the time a
consumer spends between items is not charged to the generator. Hot helpers
such as ``FiniteMonoid.mul`` and ``label`` are never wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Iterator, TextIO

LAYERS = {
    "core": ("validate_monoid", "make_monoid_map", "make_congruence", "quotient",
             "is_group"),
    "inverse": ("validate_inverse", "min_group_congruence", "natural_order",
                "is_e_unitary", "is_f_inverse", "is_clifford",
                "idempotent_semilattice", "validate_semilattice"),
    "extension": ("build_canonical_extension", "is_weakly_schreier", "make_extension"),
    "constructions": ("f_product", "crossed_product", "validate_factor_system",
                      "gluing", "validate_almost_action", "validate_gluing_map",
                      "gluing_map_from_clifford", "clifford_reconstruction",
                      "iso_f_product_crossed", "factor_system_from_extension"),
    "iso": ("brute_force_iso", "verify_iso", "element_profile"),
    "corpus": ("enumerate_inverse_monoids", "enumerate_semilattices",
               "enumerate_almost_actions", "enumerate_gluing_maps", "_monoid_tables"),
    "mtab": ("parse_mtab",),
    "report": ("analyze", "emit_report"),
    "suite": ("build_context",) + tuple(f"criterion_{i}" for i in range(1, 8))
             + ("sigma_by_exhaustion",),
    "cli": ("cli_main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
_INDEX = {name: i for i, name in enumerate(NAMES)}
VALIDATE_MONOID = _INDEX["core.validate_monoid"]
MIN_GROUP_CONGRUENCE = _INDEX["inverse.min_group_congruence"]
BRUTE_FORCE_ISO = _INDEX["iso.brute_force_iso"]
ALMOST_ACTIONS = _INDEX["corpus.enumerate_almost_actions"]
# Enumerators whose direct validate_monoid calls are the candidate tables.
CANDIDATE_PARENTS = (_INDEX["corpus.enumerate_inverse_monoids"],
                     _INDEX["corpus.enumerate_semilattices"])


class Tracer:
    """Collects spans for a whole run and per-pass totals for each name."""

    def __init__(self) -> None:
        self.spans = array("q")  # op, span, parent, name index, start ns, end ns
        self._stack: list[list[int]] = []  # [name, span id, start, child ns]
        self._patched: list[tuple[object, str | int, object]] = []
        self._next_span = 0
        self.op = -1
        self.begin_pass()

    # --- passes and ops ---------------------------------------------------

    def begin_pass(self) -> None:
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.yields = [0] * len(NAMES)
        self.triples = 0
        self.iso_found = 0
        self.action_space = 0
        self.candidates = [0] * len(NAMES)
        self.distinct_sigma_monoids = 0
        self._op_monoids: set = set()
        self._op_seen: dict[int, object] = {}

    def begin_op(self) -> None:
        self.op += 1
        self._end_op_monoids()

    def end_pass(self) -> dict:
        """Totals of the pass just run, keyed like the per-layer metrics."""
        self._end_op_monoids()
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
        out["core.validate_monoid.triples"] = self.triples
        out["inverse.min_group_congruence.per_monoid"] = _ratio(
            self.calls[MIN_GROUP_CONGRUENCE], self.distinct_sigma_monoids)
        out["iso.brute_force_iso.hit_ratio"] = _ratio(
            self.iso_found, self.calls[BRUTE_FORCE_ISO])
        for idx in CANDIDATE_PARENTS:
            out[f"{NAMES[idx]}.keep_ratio"] = _ratio(self.yields[idx],
                                                    self.candidates[idx])
        out["corpus.enumerate_almost_actions.keep_ratio"] = _ratio(
            self.yields[ALMOST_ACTIONS], self.action_space)
        self.begin_pass()
        return out

    def _end_op_monoids(self) -> None:
        self.distinct_sigma_monoids += len(self._op_monoids)
        self._op_monoids = set()
        self._op_seen = {}

    # --- spans --------------------------------------------------------------

    def _enter(self, idx: int) -> list[int]:
        frame = [idx, self._next_span, time.perf_counter_ns(), 0]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        idx, span, start, child = frame
        dur = end - start
        self.self_ns[idx] += dur - child
        parent = -1
        if self._stack:
            up = self._stack[-1]
            up[3] += dur
            parent = up[1]
            if idx == VALIDATE_MONOID and up[0] in CANDIDATE_PARENTS:
                self.candidates[up[0]] += 1
        self.spans.extend((self.op, span, parent, idx, start, end))

    def _on_call(self, idx: int, args: tuple, kwargs: dict) -> None:
        self.calls[idx] += 1
        if idx == VALIDATE_MONOID:
            n = args[0] if args else kwargs["n"]
            self.triples += n ** 3
        elif idx == MIN_GROUP_CONGRUENCE:
            m = args[0] if args else kwargs["m"]
            if id(m) not in self._op_seen:
                self._op_seen[id(m)] = m  # held so that the id is not reused
                self._op_monoids.add((m.base.n, m.base.id, m.base.table))
        elif idx == ALMOST_ACTIONS:
            group, semi = args[:2]
            self.action_space += semi.n ** ((group.n - 1) * semi.n)

    def _wrap(self, idx: int, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._on_call(idx, args, kwargs)
                return tracer._iterate(idx, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._on_call(idx, args, kwargs)
                frame = tracer._enter(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if idx == BRUTE_FORCE_ISO and result is not None:
                    tracer.iso_found += 1
                return result
        return wrapper

    def _iterate(self, idx: int, gen) -> Iterator:
        try:
            while True:
                frame = self._enter(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                self.yields[idx] += 1
                yield item
        finally:
            gen.close()

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "imw" or name.startswith("imw."))]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"imw.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(_INDEX[f"{mod}.{fn_name}"], original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
                        elif isinstance(value, list):
                            for i, item in enumerate(value):
                                if item is original:
                                    self._patch(value, i, wrapper)

    def _patch(self, where, key, wrapper) -> None:
        if isinstance(where, list):
            self._patched.append((where, key, where[key]))
            where[key] = wrapper
        else:
            self._patched.append((where, key, getattr(where, key)))
            setattr(where, key, wrapper)

    def uninstall(self) -> None:
        for where, key, original in reversed(self._patched):
            if isinstance(where, list):
                where[key] = original
            else:
                setattr(where, key, original)
        self._patched = []

    def write_spans(self, out: TextIO) -> None:
        out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
        s = self.spans
        for i in range(0, len(s), 6):
            out.write(f"{s[i]}\t{s[i + 1]}\t{s[i + 2]}\t{NAMES[s[i + 3]]}\t"
                      f"{s[i + 4]}\t{s[i + 5]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
