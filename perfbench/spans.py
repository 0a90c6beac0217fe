"""Spans and counters recorded from outside hnncert.

:func:`install` wraps hnncert's public functions in the namespaces where
their callers look them up, so the program itself is unchanged: a function
is replaced in every hnncert module that binds it (the defining module and
every module that imported it by name), a gate only in ``hnncert.certify``,
and a method on its class.  Each call becomes a span (name, parent span,
start, end, operation id); spans stay in memory until the caller writes
them out.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# Per-layer metrics in a fixed order; times are summed self times in
# seconds, every other value is an exact count.
METRICS = (
    "gate.train_track_s", "gate.stabilization_s", "gate.expansion_s",
    "gate.disjointness_s", "gate.disjointness_calls", "gate.iterate_s",
    "gate.audit31_s", "gate.flaring_s", "gate.report_s",
    "words.least_rotation_s", "words.least_rotation_calls", "words.least_rotation_letters",
    "words.power_s", "words.power_letters_built", "words.power_letters_returned",
    "words.apply_endo_s", "words.apply_endo_letters",
    "graphmap.map_loop_s", "graphmap.map_loop_letters",
    "graphmap.cyclic_paths_equal_s", "graphmap.cyclic_paths_equal_calls",
    "graphmap.path_length_s", "graphmap.path_length_calls", "graphmap.path_length_letters",
    "graphmap.random_legal_loop_s", "graphmap.random_legal_loop_failed",
    "stallings.subgroup_graph_s", "stallings.subgroup_graph_calls",
    "stallings.fold_edges_in", "stallings.fold_edges_out",
    "stallings.core_s", "stallings.component_labels_s",
    "pullback.fiber_product_s", "pullback.fiber_product_edges",
    "pullback.pullback_filtration_s", "pullback.point_image_power_s",
    "pullback.point_image_power_calls",
    "disjointness.image_subgroup_s", "disjointness.image_subgroup_vertices",
    "disjointness.preimage_in_image_s", "disjointness.preimage_in_image_calls",
    "disjointness.preimage_in_image_found",
    "annuli.build_annulus_s", "annuli.build_annulus_calls", "annuli.annuli_distinct",
    "annuli.ring_letters", "annuli.ring_lengths_calls",
    "annuli.flaring_audit_s", "annuli.flaring_audit_calls",
)


class Tracer:
    """In-memory spans and counters of one interpreter."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (operation id, name id, parent span index or -1, start, end)
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._annuli: set = set()
        self._in_power = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, op: int) -> None:
        """Start a new operation: spans that follow carry its id, and
        annulus distinctness is counted afresh."""
        self.op = op
        self._annuli = set()

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records a span; ``after(args, result)``
        and ``on_error(exc)`` update counters outside the span."""
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, nid, parent, start, end)
                if on_error is not None:
                    on_error(exc)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (self.op, nid, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """Wrap ``fn`` to update counters only, without a span."""

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def self_times(self, first: int = 0) -> dict[str, list[float]]:
        """Per span name: [self time, inclusive time, calls] over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, list[float]] = {}
        for i, (_, nid, _, start, end) in enumerate(spans):
            row = out.setdefault(self.names[nid], [0.0, 0.0, 0])
            row[0] += end - start - child[i]
            row[1] += end - start
            row[2] += 1
        return out

    def _annulus(self, args, result) -> None:
        self.counts["annuli.build_annulus_calls"] += 1
        self.counts["annuli.ring_letters"] += sum(len(r) for r in result.rings)
        key = (result.word.letters, result.rings)
        if key not in self._annuli:
            self._annuli.add(key)
            self.counts["annuli.annuli_distinct"] += 1


def _replace_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the measured functions of the already imported hnncert."""
    # the package exports the function ``certify``, which hides the module
    # of that name from attribute access, so modules come from importlib
    (annuli, certify, cli, disjointness, graphmap, pullback, stallings, words) = (
        importlib.import_module(f"hnncert.{name}") for name in (
            "annuli", "certify", "cli", "disjointness", "graphmap", "pullback", "stallings", "words"))

    modules = [m for name, m in sys.modules.items() if name == "hnncert" or name.startswith("hnncert.")]
    c = tracer.counts

    def add(key, n=1):
        c[key] += n

    def letters(key):
        return lambda args, result: add(key, len(result))

    def with_calls(key, extra=None):
        def after(args, result):
            c[key + "_calls"] += 1
            if extra is not None:
                extra(args, result)
        return after

    primitives = [
        (words, "least_rotation", with_calls("words.least_rotation", lambda a, r: add("words.least_rotation_letters", len(a[0])))),
        (words, "apply_endo", letters("words.apply_endo_letters")),
        (graphmap, "map_loop", letters("graphmap.map_loop_letters")),
        (graphmap, "cyclic_paths_equal", with_calls("graphmap.cyclic_paths_equal")),
        (graphmap, "path_length", with_calls("graphmap.path_length", lambda a, r: add("graphmap.path_length_letters", len(a[1])))),
        (graphmap, "random_legal_loop", None),
        (stallings, "subgroup_graph", with_calls("stallings.subgroup_graph", lambda a, r: (
             add("stallings.fold_edges_in", sum(len(w) for w in a[0])),
             add("stallings.fold_edges_out", len(r.edges))))),
        (stallings, "core", None),
        (stallings, "component_labels", None),
        (pullback, "fiber_product", lambda a, r: add("pullback.fiber_product_edges", len(r.graph.edges))),
        (pullback, "pullback_filtration", None),
        (pullback, "point_image_power", with_calls("pullback.point_image_power")),
        (disjointness, "image_subgroup", lambda a, r: add("disjointness.image_subgroup_vertices", r.graph.num_vertices)),
        (disjointness, "preimage_in_image", with_calls("disjointness.preimage_in_image",
                    lambda a, r: add("disjointness.preimage_in_image_found", r is not None))),
        (annuli, "build_annulus", tracer._annulus),
        (annuli, "flaring_audit", with_calls("annuli.flaring_audit")),
    ]
    for module, attr, after in primitives:
        name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        original = getattr(module, attr)
        on_error = None
        if attr == "random_legal_loop":
            def on_error(exc):
                if isinstance(exc, RuntimeError):
                    c["graphmap.random_legal_loop_failed"] += 1
        _replace_everywhere(modules, original, tracer.span(name, original, after, on_error))

    gates = [
        ("is_immersion", "gate.train_track"), ("verify_train_track", "gate.train_track"),
        ("transition_matrix", "gate.train_track"), ("is_irreducible_matrix", "gate.train_track"),
        ("pf_eigenvalue", "gate.train_track"), ("stabilization_power", "gate.stabilization"),
        ("expansion_power", "gate.expansion"), ("iterate_map", "gate.iterate"),
        ("audit_31_hyperbolicity", "gate.audit31"), ("_flaring_battery", "gate.flaring"),
    ]
    for attr, name in gates:
        setattr(certify, attr, tracer.span(name, getattr(certify, attr)))
    certify.essential_disjointness_power = tracer.span(
        "gate.disjointness", certify.essential_disjointness_power,
        lambda a, r: add("gate.disjointness_calls"))
    cli.emit_report = tracer.span("gate.report", cli.emit_report)

    endo = words.Endomorphism
    power, compose = endo.power, endo.compose

    def power_entered(self, k):
        tracer._in_power += 1
        try:
            return power(self, k)
        finally:
            tracer._in_power -= 1

    endo.power = tracer.span(
        "words.power", power_entered,
        lambda a, r: add("words.power_letters_returned", sum(len(w) for w in r.images)))

    def compose_letters(args, result):
        if tracer._in_power:
            c["words.power_letters_built"] += sum(len(w) for w in result.images)

    endo.compose = tracer.counted(compose, compose_letters)
    annuli.Annulus.ring_lengths = tracer.counted(
        annuli.Annulus.ring_lengths, lambda a, r: add("annuli.ring_lengths_calls"))
