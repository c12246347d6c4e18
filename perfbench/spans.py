"""In-memory spans around the library's public functions (traced run only).

``install`` rebinds each listed function on its own module and on every
``stellar_zeros`` module that imported it by name, so internal calls are
recorded too (``dynamics.eigenvalues_small``, ``oracle.count_zeros_box``,
...).  A span is ``[name, start, end, parent, item, error]``.  Spans from a
worker thread that has no open span of its own take the main thread's
innermost open span as parent, so ``verify``'s oracle workers attach to
their item.  Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _size(result):
    return int(np.size(result))


def _times(result):
    return int(result.times.size)


# module -> function -> (count suffix, count from the result) or None.
LAYERS = {
    "rootfind": {"eigenvalues_small": None, "roots_polynomial": None},
    "dynamics": {
        "integrate": ("grid_points", _times),
        "closed_form": None,
        "matching_distance": None,
    },
    "phase": {
        "crossing_guarantee_audit": None,
        "phase_trajectory": ("samples", _times),
        "detect_crossings": ("events", len),
        "gershgorin_check": None,
        "antipodal_check": None,
    },
    "oracle": {"evolve_fock": None, "zeros_from_fock": ("zeros", len)},
    "wavefunction": {
        "eval_entire": ("points", _size),
        "count_zeros_box": None,
        "build_wavefunction": None,
    },
    "states": {"stellar_to_fock": None},
    "cli": {"main": None},
}

FUNCTIONS = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
COUNTS = [f"{m}.{f}.{c[0]}" for m, fns in LAYERS.items() for f, c in fns.items() if c]

NAME, START, END, PARENT, ITEM, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.item = -1
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.perf_counter(), None, parent, self.item, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span, error=None):
        span[END] = time.perf_counter()
        span[ERROR] = error
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def abandon(self):
        """Close every span the main thread left open (the item was abandoned)."""
        now = time.perf_counter()
        for span in self._main_stack:
            if span[END] is None:
                span[END] = now
                span[ERROR] = span[ERROR] or "abandoned"
        self._main_stack.clear()

    def wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                raise
            tracer.close(span)
            if count is not None:
                tracer.counts[f"{name}.{count[0]}"] += count[1](result)
            return result

        return traced

    def install(self):
        """Rebind every listed function; returns the names that do not exist."""
        absent = []
        for mod_name, fns in LAYERS.items():
            try:
                module = importlib.import_module(f"stellar_zeros.{mod_name}")
            except ModuleNotFoundError:
                absent.extend(f"{mod_name}.{f}" for f in fns)
                continue
            for fn_name, count in fns.items():
                orig = getattr(module, fn_name, None)
                if orig is None:
                    absent.append(f"{mod_name}.{fn_name}")
                    continue
                traced = self.wrap(f"{mod_name}.{fn_name}", orig, count)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name == "stellar_zeros" or name.startswith("stellar_zeros."):
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, traced)
        return absent

    def layer_stats(self):
        """Per function: calls, busy seconds, self seconds and failed calls.

        Busy time sums the function's outermost spans; self time subtracts
        the part of each span that its children's spans cover.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append(span)
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0}
                 for name in FUNCTIONS}
        for span in self.spans:
            st = stats.get(span[NAME])
            if st is None:
                continue
            dur = span[END] - span[START]
            st["calls"] += 1
            st["fail"] += span[ERROR] is not None
            if not _nested_in_same(span):
                st["busy_s"] += dur
            st["self_s"] += dur - _covered(span, children.get(id(span), ()))
        return stats

    def error_classes(self, name):
        """Exception class counts of the failed spans of one function."""
        out = defaultdict(int)
        for span in self.spans:
            if span[NAME] == name and span[ERROR] is not None:
                out[span[ERROR]] += 1
        return dict(out)

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": index.get(id(s[PARENT])), "item": s[ITEM], "error": s[ERROR],
                }) + "\n")


def _nested_in_same(span):
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == span[NAME]:
            return True
        parent = parent[PARENT]
    return False


def _covered(span, kids):
    """Length of the union of the children's intervals inside the span."""
    lo, hi = span[START], span[END]
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(k[START], lo), min(k[END], hi)) for k in kids):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
