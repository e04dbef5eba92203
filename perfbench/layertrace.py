"""Outside-in layer tracing for corrmem.

:class:`Tracer` wraps every function named in the ``__all__`` of each layer
module (``corrmem.field``, ``corrmem.channel``, ...) wherever a ``corrmem``
module refers to it, including a module's own calls to its own functions.
Each call becomes a span: name, start, end, thread and the span that caused
it.  Spans opened in a pool worker thread have no parent in their own thread;
:func:`summarize` gives them the enclosing ``harness.run`` span by time
containment.  The program itself is not modified, so the spans stop at the
public functions; private kernels show up in their caller's self time.

Counters are taken at the same boundaries: rows decoded by ``all_sequences``,
streams opened and seeds derived, uniforms and binomials drawn (through a
delegating proxy around each generator ``make_generator`` returns), epochs
survived by ``simulate_retention`` trials and CSV bytes written by ``run``.
"""

import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

LAYERS = ("field", "channel", "adversarial", "memory", "bounds", "harness", "rng")

# Functions whose inclusive time is reported on its own, as "<name>_s".
INCLUSIVE = (
    "channel.weight_distribution",
    "channel.covariance_matrix",
    "channel.lipschitz_constant",
    "channel.error_rate",
    "field.exact_field_distribution",
    "bounds.verify_bound",
    "bounds.exact_tail",
    "bounds.empirical_tail",
    "memory.simulate_retention",
    "memory.per_epoch_failure_prob",
    "memory.scaling_experiment",
    "adversarial.trigger_probability",
    "adversarial.exact_covariance",
    "adversarial.weight_distribution",
    "rng.make_generator",
    "rng.derive_seed",
)

# Functions whose call count is reported on its own, as "<name>.calls".
COUNTED_CALLS = ("field.exact_field_distribution", "adversarial.trigger_probability")

COUNTERS = (
    "field.states_enumerated",
    "rng.streams_opened",
    "rng.seeds_derived",
    "rng.uniforms_drawn",
    "rng.binomials_drawn",
    "memory.epochs_survived",
    "harness.csv_bytes",
)


def _size(size, *shapes):
    """Number of draws a numpy sampler returns for ``size`` (None = scalar)."""
    if size is None:
        return int(np.broadcast(*shapes).size) if shapes else 1
    return int(np.prod(size))


class CountingGenerator:
    """Delegates to a ``numpy.random.Generator`` and counts what it draws."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        self._tracer.count("rng.uniforms_drawn", _size(size))
        return self._gen.random(size, *args, **kwargs)

    def binomial(self, n, p, size=None):
        self._tracer.count("rng.binomials_drawn", _size(size, n, p))
        return self._gen.binomial(n, p, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread")

    def __init__(self, name, parent, thread):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Records spans and counters for calls into corrmem's layer modules.

    Use as a context manager, or call :meth:`install` and :meth:`uninstall`.
    ``corrmem`` must already be imported.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "corrmem" or name.startswith("corrmem.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"corrmem.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        after = _AFTER.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            with tracer._lock:
                tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                result = after(tracer, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _after_all_sequences(tracer, result, args):
    tracer.count("field.states_enumerated", int(result.shape[0]))
    return result


def _after_make_generator(tracer, result, args):
    tracer.count("rng.streams_opened")
    return CountingGenerator(result, tracer)


def _after_derive_seed(tracer, result, args):
    tracer.count("rng.seeds_derived")
    return result


def _after_simulate_retention(tracer, result, args):
    lived = np.where(result.censored, int(args["max_epochs"]), result.failure_epochs)
    tracer.count("memory.epochs_survived", int(lived.sum()))
    return result


def _after_run(tracer, result, args):
    tracer.count("harness.csv_bytes", os.path.getsize(result.csv_path))
    return result


_AFTER = {
    "field.all_sequences": _after_all_sequences,
    "rng.make_generator": _after_make_generator,
    "rng.derive_seed": _after_derive_seed,
    "memory.simulate_retention": _after_simulate_retention,
    "harness.run": _after_run,
}


def _covered(parent, children):
    """Length of ``parent``'s interval that the union of ``children`` covers."""
    total = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def adopt_orphans(spans):
    """Parent each root span opened inside a ``harness.run`` span to it."""
    runs = [s for s in spans if s.name == "harness.run"]
    for span in spans:
        if span.parent is None and span.name != "harness.run":
            for run in runs:
                if run.start <= span.start and span.end <= run.end:
                    span.parent = run
                    break


def _has_ancestor(span, test):
    node = span.parent
    while node is not None:
        if test(node):
            return True
        node = node.parent
    return False


def summarize(spans, counts):
    """Per-layer metrics from finished spans and counters.

    ``<layer>.self_s`` sums span time not covered by child spans, so busy
    time in parallel workers adds up and can exceed wall time.
    ``<layer>.inclusive_s`` and ``<function>_s`` sum the outermost spans of
    that layer or function, so recursion is not counted twice.
    """
    adopt_orphans(spans)
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.inclusive_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for name in INCLUSIVE:
        out[f"{name}_s"] = 0.0
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = 0
    for span in spans:
        duration = span.end - span.start
        out[f"{span.layer}.self_s"] += duration - _covered(span, children.get(id(span), ()))
        out[f"{span.layer}.calls"] += 1
        if not _has_ancestor(span, lambda s: s.layer == span.layer):
            out[f"{span.layer}.inclusive_s"] += duration
        if span.name in INCLUSIVE and not _has_ancestor(span, lambda s: s.name == span.name):
            out[f"{span.name}_s"] += duration
        if span.name in COUNTED_CALLS:
            out[f"{span.name}.calls"] += 1
    for key in COUNTERS:
        out[key] = int(counts.get(key, 0))
    return out
