"""Spans recorded around the benchmark's calls into dicots.

A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` indexes the
enclosing span (-1 for none). Spans stay in memory until the run ends. They
are opened only by the benchmark, around calls into the package's public
functions; nothing inside the package is instrumented.

``traced`` returns a copy of an ``Api`` namespace whose calls record spans.
Three wrappers are split into the public calls they are made of, so the
trace can charge the work to the layer that does it:

* ``oracle_invertible(g)`` becomes ``conjugate``, ``sum`` then ``eq_zero``;
* ``is_invertible(g)`` first runs ``canonical`` and the follower scan
  (``conjugate``, ``sum``, ``outcome`` per follower), then the real call,
  which now finds those results memoized;
* ``compare(g, h)`` first runs ``geq`` both ways, then the real call.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

# Api attribute -> span name, for the calls wrapped one to one.
SPANS = {
    "parse": "forms.parse",
    "notation": "forms.notation",
    "enumerate_dicots": "forms.enumerate",
    "sum": "forms.sum",
    "conjugate": "forms.conjugate",
    "outcome": "outcomes.outcome",
    "geq": "order.geq",
    "eq_zero": "order.eq_zero",
    "canonical": "canonical.canonical",
    "cli_main": "cli.main",
    "day2_population": "selftest.day2_population",
    "day3_sample": "selftest.day3_sample",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        i = len(self.spans) - 1
        self._open.append(i)
        return i

    def end(self, i: int, name: str | None = None) -> None:
        span = self.spans[i]
        span[2] = time.perf_counter_ns()
        if name is not None:
            span[0] = name
        self._open.pop()


def _wrap(tracer: Tracer, name: str, fn):
    def call(*args, **kw):
        i = tracer.begin(name)
        try:
            return fn(*args, **kw)
        finally:
            tracer.end(i)

    return call


def traced(api: SimpleNamespace, tracer: Tracer) -> SimpleNamespace:
    """A copy of ``api`` whose calls into dicots record spans on ``tracer``."""
    t = SimpleNamespace(**vars(api))
    for attr, name in SPANS.items():
        setattr(t, attr, _wrap(tracer, name, getattr(api, attr)))

    def oracle_invertible(store, g):
        i = tracer.begin("invert.oracle")
        try:
            return t.eq_zero(store, t.sum(store, g, t.conjugate(store, g)))
        finally:
            tracer.end(i)

    def is_invertible(store, g):
        i = tracer.begin("invert.is_invertible")
        try:
            for f in store.followers(t.canonical(store, g)):
                t.outcome(store, t.sum(store, f, t.conjugate(store, f)))
            return api.is_invertible(store, g)
        finally:
            tracer.end(i)

    def compare(store, g, h):
        i = tracer.begin("order.compare")
        try:
            t.geq(store, g, h)
            t.geq(store, h, g)
            return api.compare(store, g, h)
        finally:
            tracer.end(i)

    t.oracle_invertible = oracle_invertible
    t.is_invertible = is_invertible
    t.compare = compare
    return t


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per span name: (total seconds, calls); per module: (self seconds, calls).

    A span's self time is its duration minus the time its child spans
    cover. Spans of one thread nest, so the children's durations add up to
    exactly the covered time.
    """
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    by_name: dict = {}
    by_module: dict = {}
    for (name, start, end, _), cov in zip(spans, covered):
        dur = end - start
        tot, n = by_name.get(name, (0, 0))
        by_name[name] = (tot + dur, n + 1)
        module = name.split(".", 1)[0]
        own, m = by_module.get(module, (0, 0))
        by_module[module] = (own + dur - cov, m + 1)
    by_name = {k: (ns / 1e9, n) for k, (ns, n) in by_name.items()}
    by_module = {k: (ns / 1e9, n) for k, (ns, n) in by_module.items()}
    return by_name, by_module
