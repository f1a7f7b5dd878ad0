"""In-memory span recorder that wraps a package's public functions from outside.

Every module-level public function of each layer module is replaced, in
every package module namespace that binds it, by a wrapper that records a
span: name, layer, start, end, thread, parent span and trial id.  Binding the
wrapper in the defining module too means calls inside that module are
caught, and functions added or moved later get spans without edits here.
The originals are restored when the context ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from measure import interval_union


@dataclass(slots=True)
class Span:
    id: int
    name: str          # "<layer>.<function>"
    layer: str
    start: float
    end: float
    thread: int
    parent: int | None
    trial: object      # trial id, or None outside a trial
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread.

    A span opened on a thread with no open span of its own takes the
    innermost open span named `pool_parent` as its parent, so work on pool
    threads nests under the call that started the pool.

    Trial ids come from a `numpy.random.SeedSequence` argument whose entropy
    is a (master_seed, index) pair; the id is the pair.  Spans in
    `trial_layers` inherit the id of the latest seeded call on their thread;
    a span in any other layer ends the thread's current trial.
    """

    def __init__(self, pool_parent: str, trial_layers=()):
        self.spans: list[Span] = []
        self.pool_parent = pool_parent
        self.trial_layers = frozenset(trial_layers)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._open_pool: list[int] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
        return local

    def open(self, name: str, layer: str, args, kwargs) -> Span:
        local = self._state()
        trial = _seed_trial(args, kwargs)
        if trial is None and layer in self.trial_layers:
            trial = local.trial
        local.trial = trial
        start = time.perf_counter()
        with self._lock:
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
            if local.stack:
                parent = local.stack[-1].id
            else:
                parent = self._open_pool[-1] if self._open_pool else None
            span = Span(next(self._ids), name, layer, start, start, thread, parent, trial)
            self.spans.append(span)
            if name == self.pool_parent:
                self._open_pool.append(span.id)
        local.stack.append(span)
        return span

    def close(self, span: Span, counts: dict | None) -> None:
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        self._state().stack.pop()
        if span.name == self.pool_parent:
            with self._lock:
                self._open_pool.remove(span.id)

    def wrap(self, name: str, layer: str, fn, hook=None):
        """Wrapper for fn recording one span per call; hook(args, kwargs, result) gives counts."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer, args, kwargs)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    counts = hook(args, kwargs, result)
                return result
            finally:
                recorder.close(span, counts)

        return wrapper


def _seed_trial(args, kwargs):
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, np.random.SeedSequence):
            entropy = value.entropy
            if isinstance(entropy, (tuple, list)) and len(entropy) == 2:
                return (int(entropy[0]), int(entropy[1]))
    return None


def public_functions(module):
    """(name, function) for each public function the module itself defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


@contextlib.contextmanager
def instrumented(recorder: Recorder, package: str, layers, hooks=None):
    """Wrap every public function of package.<layer> for the context's duration."""
    hooks = hooks or {}
    layer_modules = [importlib.import_module(f"{package}.{layer}") for layer in layers]
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
    patched = []
    try:
        for layer, module in zip(layers, layer_modules):
            for name, fn in list(public_functions(module)):
                qualified = f"{layer}.{name}"
                wrapper = recorder.wrap(qualified, layer, fn, hooks.get(qualified))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            patched.append((ns, attr, fn))
        yield
    finally:
        for ns, attr, fn in reversed(patched):
            setattr(ns, attr, fn)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may run on other threads and overlap each other; only the union
    of their intervals is subtracted.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - interval_union(
                ((c.start, c.end) for c in children.get(s.id, ())), s.start, s.end)
            for s in spans}


def trial_segments(spans, parent_id: int) -> list[tuple[float, float]]:
    """Intervals during which one trial ran, among a span's direct children.

    Consecutive children on one thread carrying the same trial id form one
    segment, from the first one's start to the last one's end.
    """
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent == parent_id:
            by_thread.setdefault(s.thread, []).append(s)
    segments = []
    for run in by_thread.values():
        run.sort(key=lambda s: s.start)
        for trial, group in itertools.groupby(run, key=lambda s: s.trial):
            group = list(group)
            if trial is not None:
                segments.append((group[0].start, group[-1].end))
    return segments


def spans_to_json(spans) -> dict:
    """Compact JSON form: a name table plus one row per span."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s.start for s in spans), default=0.0)
    return {
        "names": names,
        "columns": ["id", "name", "start_s", "end_s", "thread", "parent", "trial", "counts"],
        "spans": [[s.id, index[s.name], round(s.start - t0, 9), round(s.end - t0, 9),
                   s.thread, s.parent, list(s.trial) if s.trial else None, s.counts or None]
                  for s in spans],
    }
