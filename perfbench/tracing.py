"""Layer spans recorded from outside the library.

The tracer replaces the module globals that callers resolve at call time
(``casteljau.evaluate.two_prod``, ``casteljau.experiments.condition_number``,
the runner table of ``casteljau.cli``, ...) with timing wrappers, and puts the
originals back on exit.  Spans nest on one stack, so a layer's self time is
its spans' duration minus the part covered by spans of the layers it calls.
Targets a future version of the library no longer has are skipped.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from checks import flop_count


def _poly_degree(p) -> int:
    return len(getattr(p, "coeffs", p)) - 1


def _evaluator_flops(k_of):
    def observe(tracer, args, kwargs, result):
        k = k_of(args, kwargs)
        tracer.flops += flop_count(_poly_degree(args[0]), k)

    return observe


def _horner_flops(tracer, args, kwargs, result):
    tracer.flops += 2 * _poly_degree(args[0])


def _counted_flops(tracer, args, kwargs, result):
    k = args[2] if len(args) > 2 else kwargs["k"]
    counted = result[1].total
    tracer.flops_counted += counted
    if counted != flop_count(_poly_degree(args[0]), k):
        tracer.flop_mismatches += 1


def _records(tracer, args, kwargs, result):
    tracer.records += len(result)


def targets(cj) -> list[tuple[dict, str, str, str, object]]:
    """(namespace, key, layer, span name, observer) for every wrapped call site."""
    ev, eft, ex, co, cli = cj.evaluate, cj.eft, cj.experiments, cj.counting, cj.cli
    k_arg = _evaluator_flops(lambda a, kw: a[2] if len(a) > 2 else kw["k"])
    out = [
        (vars(ev), "two_sum", "eft", "eft.two_sum", None),
        (vars(eft), "two_sum", "eft", "eft.two_sum", None),
        (vars(ev), "two_prod", "eft", "eft.two_prod", None),
        (vars(ev), "sum_k", "eft", "eft.sum_k", None),
        (vars(ev), "comp_de_casteljau_k", "evaluate", "evaluate.comp_de_casteljau_k", k_arg),
        (vars(co), "comp_de_casteljau_k", "evaluate", "evaluate.comp_de_casteljau_k", k_arg),
        (vars(ex), "comp_de_casteljau_k", "evaluate", "evaluate.comp_de_casteljau_k", k_arg),
        (vars(ex), "comp_de_casteljau", "evaluate", "evaluate.comp_de_casteljau",
         _evaluator_flops(lambda a, kw: 2)),
        (vars(ex), "de_casteljau", "evaluate", "evaluate.de_casteljau",
         _evaluator_flops(lambda a, kw: 1)),
        (vars(ex), "horner", "evaluate", "evaluate.horner", _horner_flops),
        (vars(ex), "condition_number", "oracle", "oracle.condition_number", None),
        (vars(ex), "nearest_float", "oracle", "oracle.nearest_float", None),
        (vars(ex), "count_evaluation_flops", "counting", "counting.count_evaluation_flops",
         _counted_flops),
        (vars(cli), "main", "cli", "cli.main", None),
    ]
    runners = getattr(cli, "_RUNNERS", {})
    for name in runners:
        out.append((runners, name, "experiments", f"experiments.{name}", _records))
    return [t for t in out if t[1] in t[0]]


class Tracer:
    """Call counts and self times per layer, reset at every round."""

    def __init__(self):
        self._stack: list[list[int]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.flops = 0
        self.flops_counted = 0
        self.flop_mismatches = 0
        self.records = 0

    def _wrap(self, fn, layer: str, name: str, observe):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_ns[layer] += elapsed - frame[0]
                self.ns[name] += elapsed
                self.calls[name] += 1
                self.layer_calls[layer] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, cj):
        """Wrap every call site of :func:`targets` for the duration of the block."""
        saved = []
        try:
            for namespace, key, layer, name, observe in targets(cj):
                saved.append((namespace, key, namespace[key]))
                namespace[key] = self._wrap(namespace[key], layer, name, observe)
            yield self
        finally:
            for namespace, key, original in reversed(saved):
                namespace[key] = original
