"""Timing hooks installed from outside the program.

Two kinds, both installed by replacing module and class attributes and
both removed by :meth:`Patches.restore`:

* :class:`Stopwatch` times a handful of operation entry points in the
  untraced runs (one clock read on entry and one on exit per call);
* :class:`Tracer` wraps every public function of every ``dualqa`` module,
  at each name under which the program's modules reach it, and records a
  span (function, parent span, start, end, work count) per call.  Spans
  stay in memory in flat arrays until :meth:`Tracer.save` writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

MODULES = ("autodiff", "text", "bigram", "qa", "qg", "trainer", "metrics", "cli", "toy")
METHODS = {
    ("bigram", "BigramLM"): ("fit", "sentence_log_prob"),
    ("trainer", "DualTrainer"): ("train_step", "independent_step"),
}
# The twelve primitive kinds and the public function that applies each.
PRIMITIVES = {
    "add": "add", "elementwise_mul": "elementwise_mul", "matmul": "matmul",
    "concat": "concat", "row_lookup": "row_lookup", "sigmoid": "sigmoid",
    "tanh": "tanh", "softmax_lastdim": "softmax_lastdim", "log": "log",
    "square": "square", "sum": "reduce_sum", "scalar_scale": "scalar_scale",
}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Stopwatch:
    """Per-call durations of a few entry points, for the untraced runs.

    ``calls[name]`` holds ``(start, end, size)`` tuples; ``size`` is the
    batch size for training steps and 1 otherwise.
    """

    def __init__(self):
        self.calls: dict[str, list[tuple[float, float, int]]] = {}
        self.patches = Patches()

    def time(self, owner, name, label, size=None, after=None):
        """Times ``owner.name``; ``after(args)``, if given, runs once each
        call has been timed."""
        fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        log = self.calls.setdefault(label, [])
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            log.append((start, clock(), size(args) if size else 1))
            if after is not None:
                after(args)
            return result

        self.patches.set(owner, name, timed)

    def durations(self, label):
        return [end - start for start, end, _ in self.calls.get(label, [])]


# Work counted per span, from the call's arguments and result.
WORK = {
    "dualqa.qa.encode_bigru": lambda args, _r: len(args[0]),
    "dualqa.qg.sequence_log_prob": lambda args, _r: len(args[0]) + 1,
    "dualqa.trainer.adadelta_update": lambda args, _r: args[0].values.nbytes,
    "dualqa.trainer.save_checkpoint": lambda args, _r: os.path.getsize(args[0]),
    "dualqa.trainer.DualTrainer.train_step": lambda args, _r: args[1].size,
    "dualqa.trainer.DualTrainer.independent_step": lambda args, _r: args[1].size,
}


class Tracer:
    """Span recorder.  Spans are appended on entry, so a parent's index is
    always lower than its children's."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack: list[int] = []
        self.records: list[dict[str, int]] = []  # node kinds of each record backward saw
        self._last_record = None
        self.patches = Patches()

    def _id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name, fn):
        fid = self._id(name)
        fns, parents, starts, ends, works, stack = (
            self.fn, self.parent, self.start, self.end, self.work, self._stack)
        clock = time.perf_counter
        work = WORK.get(name)
        count_tape = name == "dualqa.autodiff.backward"

        def begin():
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0)
            stack.append(idx)
            return idx

        if inspect.isgeneratorfunction(fn):
            # One span per item the caller waits for.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = begin()
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        starts[idx] = t0
                        stack.pop()
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if work is not None:
                works[idx] = work(args, result)
            elif count_tape:
                self._count_tape(args[0])
            return result
        return traced

    def _count_tape(self, loss):
        # A step runs backward twice over one record; count it once.
        record = loss._record
        if record is not self._last_record:
            self._last_record = record
            kinds: dict[str, int] = {}
            for node in record.nodes:
                kinds[node.kind] = kinds.get(node.kind, 0) + 1
            self.records.append(kinds)

    def install(self):
        modules = {m: importlib.import_module(f"dualqa.{m}") for m in MODULES}
        wrappers = {}
        for mod in modules.values():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{mod.__name__}.{name}", obj))
        # Every binding a caller can reach: the defining module and each
        # module that imported the function by name.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self.patches.set(mod, attr, entry[1])
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for method in methods:
                raw = cls.__dict__[method]
                qualname = f"dualqa.{mod_name}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    self.patches.set(cls, method, classmethod(self.wrap(qualname, raw.__func__)))
                else:
                    self.patches.set(cls, method, self.wrap(qualname, raw))

    def arrays(self):
        return (np.frombuffer(self.fn, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.work, dtype=np.int64).copy())

    def save(self, path):
        fn, parent, start, end, work = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), fn=fn, parent=parent,
                            start=start, end=end, work=work)


class SpanTable:
    """Durations, self times and operation contexts of recorded spans."""

    STEP = ("dualqa.trainer.DualTrainer.train_step",
            "dualqa.trainer.DualTrainer.independent_step")
    QUESTION = ("dualqa.qa.rank_candidates",)
    ANSWER = ("dualqa.qg.beam_search", "dualqa.qg.greedy_decode", "dualqa.qg.unk_replace")

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.fn, self.parent, start, end, self.work = tracer.arrays()
        self.dur = end - start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.fn))
        self.self_time = self.dur - child
        self.roots_s = float(self.dur[~has_parent].sum())
        # Nearest enclosing operation (1 step, 2 question, 3 answer) of each
        # span, itself included; 0 outside any operation.
        kind_of = [0] * len(self.names)
        for code, group in ((1, self.STEP), (2, self.QUESTION), (3, self.ANSWER)):
            for i, name in enumerate(self.names):
                if name in group:
                    kind_of[i] = code
        ctx = [0] * len(self.fn)
        for i, (f, p) in enumerate(zip(self.fn.tolist(), self.parent.tolist())):
            ctx[i] = kind_of[f] or (ctx[p] if p >= 0 else 0)
        self.context = np.array(ctx, dtype=np.int8)

    def mask(self, names, context=None, outermost=True):
        """Spans of the given functions; with ``outermost`` a span nested in
        another span of the same set is dropped, so inclusive times add up."""
        fids = [i for i, n in enumerate(self.names) if n in set(names)]
        selected = np.isin(self.fn, fids)
        if outermost:
            parent_fn = np.where(self.parent >= 0, self.fn[np.maximum(self.parent, 0)], -1)
            selected &= ~((self.parent >= 0) & np.isin(parent_fn, fids))
        if context is not None:
            selected &= self.context == context
        return selected

    def count(self, names, context=None):
        return int(self.mask(names, context, outermost=False).sum())

    def seconds(self, names, context=None):
        return float(self.dur[self.mask(names, context)].sum())

    def work_sum(self, names, context=None):
        return int(self.work[self.mask(names, context, outermost=False)].sum())

    def self_seconds(self, names, context=None):
        return float(self.self_time[self.mask(names, context, outermost=False)].sum())

    def by_function(self):
        """(name, calls, inclusive s of outermost calls, self s), by self time."""
        rows = []
        for i, name in enumerate(self.names):
            sel = self.fn == i
            if sel.any():
                rows.append((name, int(sel.sum()), self.seconds([name]),
                             float(self.self_time[sel].sum())))
        return sorted(rows, key=lambda r: -r[3])

    def by_layer(self):
        """{module: (calls, self s)} over every recorded span."""
        layers: dict[str, list] = {}
        for name, calls, _, self_s in self.by_function():
            layer = ".".join(name.split(".")[:2])
            entry = layers.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return {k: (v[0], v[1]) for k, v in sorted(layers.items(), key=lambda kv: -kv[1][1])}
