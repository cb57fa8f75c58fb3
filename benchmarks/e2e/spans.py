"""Span tracing for the benchmark's ``--trace 1`` run.

The tracer wraps the public entry points of each layer *from the
benchmark's side* (the library itself is not instrumented): every call
through a wrapped function records a span ``(name, start, end, parent,
query id)`` in memory.  A layer's self time is its spans' duration minus
the time covered by their child spans.  Spans are written as JSONL once
the run ends, and :func:`layer_table` renders the per-layer self times.

Wrappers check :attr:`Tracer.active` on every call, so a traced process
can run each query once untraced and once traced; the ratio of the two
times is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

#: (module, class or None, attribute, span name) of every wrapped entry
#: point.  Runner modules import their helpers by name, so each import
#: site is wrapped separately.
LAYER_POINTS = (
    ("repro.gnn.engine", "GNNQueryEngine", "query", "gnn.kgnn"),
    ("repro.core.sanitize", "AnswerSanitizer", "sanitize", "sanitize"),
    ("repro.encoding.answers", "AnswerCodec", "encode", "encoding.encode"),
    ("repro.encoding.answers", "AnswerCodec", "decode", "encoding.decode"),
    ("repro.core.lsp", None, "matrix_select", "crypto.select"),
    ("repro.core.lsp", None, "nested_select", "crypto.select"),
    ("repro.core.lsp", "LSPServer", "answer_group_query", "lsp"),
    ("repro.core.lsp", "LSPServer", "answer_group_query_opt", "lsp"),
    ("repro.core.lsp", "LSPServer", "answer_single_query", "lsp"),
    ("repro.core.lsp", "LSPServer", "answer_single_query_opt", "lsp"),
    ("repro.core.group", None, "encrypt_indicator", "crypto.encrypt"),
    ("repro.core.opt", None, "encrypt_indicator", "crypto.encrypt"),
    ("repro.core.naive", None, "encrypt_indicator", "crypto.encrypt"),
    ("repro.crypto.noncepool", None, "pooled_indicator", "crypto.encrypt"),
    ("repro.core.group", None, "build_location_set", "client.location_set"),
    ("repro.core.opt", None, "build_location_set", "client.location_set"),
    ("repro.core.naive", None, "build_location_set", "client.location_set"),
    ("repro.core.group", None, "decrypt_answer", "crypto.decrypt"),
    ("repro.core.opt", None, "decrypt_answer", "crypto.decrypt"),
    ("repro.core.naive", None, "decrypt_answer", "crypto.decrypt"),
    ("repro.core.group", None, "solve_partition", "partition.solve"),
    ("repro.core.opt", None, "solve_partition", "partition.solve"),
    ("repro.serve.pool", None, "solve_partition", "partition.solve"),
    ("repro.crypto.noncepool", "NoncePool", "refill", "noncepool.refill"),
)


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.active = False
        self.query_id: object = None  # stamped on every span recorded
        #: One ``[name, start, end, parent index, query id]`` per span.
        self.spans: list[list] = []
        self._child_seconds: list[float] = []
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query_id])
        self._child_seconds.append(0.0)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self._child_seconds[span[3]] += end - span[1]

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block while the tracer is active."""
        if not self.active:
            yield
            return
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def traced(self, name: str, original):
        """``original`` wrapped so each active call records a ``name`` span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(index)

        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every entry point of :data:`LAYER_POINTS`."""
        for module_name, class_name, attr, name in LAYER_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            patches.replace(owner, attr, functools.partial(self.traced, name))

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, self._child_seconds):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def total_seconds(self, name: str) -> tuple[float, int]:
        """(summed duration, count) of the spans called ``name``."""
        durations = [end - start for span_name, start, end, _, _ in self.spans if span_name == name]
        return sum(durations), len(durations)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, query_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query": query_id,
                        }
                    )
                    + "\n"
                )


def layer_table(self_seconds: dict[str, float], queries: int, root_seconds: float) -> str:
    """Per-layer self time per traced query and its share of query time."""
    lines = [f"{'layer':<22} {'self s/query':>13} {'share':>7}"]
    for name, seconds in sorted(self_seconds.items(), key=lambda item: -item[1]):
        share = seconds / root_seconds if root_seconds > 0 else 0.0
        lines.append(f"{name:<22} {seconds / max(queries, 1):>13.6f} {share:>7.1%}")
    return "\n".join(lines)
