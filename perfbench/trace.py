"""Spans around public sharelin functions, recorded from outside the program.

A :class:`Tracer` wraps each target function and rebinds every name in the
``sharelin`` modules that refers to it (``cli`` calls ``early_prune`` through
its own imported name, ``amgu`` calls ``union_closure`` through its own, and
so on), so calls made inside the program are traced without changing it.
Leaving the ``with`` block restores every rebound name.

Each span has an id, a name, a start, an end, a parent span and the id of
the benchmark operation that caused it. Self time is a span's duration
minus the durations of its direct children; calls are nested in one thread,
so children never overlap. Spans stay in memory, up to ``SPAN_LIMIT`` of
them, until :meth:`Tracer.dump` writes them once.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter
from typing import Callable

# Spans kept for the dump; calls, self time and counts cover every span
# regardless (short oracle calls make about 100k spans a second).
SPAN_LIMIT = 200_000

# (module, function, work counter or None); the counter receives the
# tracer's Counter, the call's arguments and its result
Target = tuple[str, str, "Callable | None"]


def _prune_counts(counts: Counter, args, kwargs, result) -> None:
    counts["amgu.early_prune.groups_dropped"] += len(args[2].groups) - len(result.groups)


def _closure_counts(counts: Counter, args, kwargs, result) -> None:
    counts["sharing.union_closure.groups_in"] += len(set(args[0]))
    counts["sharing.union_closure.groups_out"] += len(result)


def _pairwise_counts(counts: Counter, args, kwargs, result) -> None:
    counts["sharing.pairwise_union.groups_in"] += len(args[0]) + len(args[1])
    counts["sharing.pairwise_union.groups_out"] += len(result)


def _decomposition_counts(counts: Counter, args, kwargs, result) -> None:
    counts["sharing.freeness_decomposition.blocks"] += len(result)


def _fuzz_counts(counts: Counter, args, kwargs, result) -> None:
    counts["fuzz.trials"] += result.trials
    for key, value in result.stats.items():
        counts[f"fuzz.{key}"] += value


TARGETS: tuple[Target, ...] = (
    ("cli", "main", None),
    ("problem_io", "parse_problem", None),
    ("problem_io", "format_triple", None),
    ("groundness", "truth", None),
    ("groundness", "parse_formula", None),
    ("amgu", "analyze", None),
    ("amgu", "early_prune", _prune_counts),
    ("amgu", "amgu1", None),
    ("amgu", "amgu2", None),
    ("amgu", "amgu3", None),
    ("amgu", "decomposed_reference", None),
    ("sharing", "union_closure", _closure_counts),
    ("sharing", "pairwise_union", _pairwise_counts),
    ("sharing", "freeness_decomposition", _decomposition_counts),
    ("concrete", "unify", None),
    ("concrete", "describes", None),
    ("concrete", "groundness_abstraction", None),
    ("fuzz", "run_trials", _fuzz_counts),
)


class Tracer:
    """Context manager that traces the target functions while active."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_ns = [0] * len(TARGETS)
        self.counts: Counter = Counter()
        # one tuple per span: (id, name index, start ns, end ns, parent id, op)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, func: Callable, counter: Callable | None) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, index, start, end, parent, self.op))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "sharelin" or name.startswith("sharelin."))
        ]
        for index, (mod, fn, counter) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"sharelin.{mod}"), fn)
            wrapper = self._wrap(index, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_ms(self, name: str) -> float:
        return self.self_ns[self.names.index(name)] / 1e6

    def call_count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def share(self, *prefixes: str) -> float:
        """Percent of all self time spent in targets named with a prefix."""
        ns = sum(s for name, s in zip(self.names, self.self_ns) if name.startswith(prefixes))
        return 100 * ns / sum(self.self_ns)

    def dump(self, path: str) -> None:
        """Write the kept spans as gzipped JSON lines, times in ns from the
        first span; a parent of -1 marks a root."""
        t0 = min((s[2] for s in self.spans), default=0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, index, start, end, parent, op in self.spans:
                handle.write(
                    f'{{"id": {span_id}, "name": "{self.names[index]}", "start_ns": {start - t0}, '
                    f'"end_ns": {end - t0}, "parent": {parent}, "op": {op}}}\n'
                )
