"""Hierarchical spans on a deterministic logical clock.

A :class:`Tracer` produces :class:`Span` trees — session → protocol round
→ crypto / upload / cache steps — timestamped by a *logical tick
counter* instead of wall time: every span start and finish advances the
clock by one, so two runs that execute the same call sequence emit
byte-identical traces (the same reproducibility contract the serving
engine's simulated clock follows).  Real durations are nondeterministic
and therefore never part of a span's identity; deterministic *costs*
(operation counts, predicted seconds) ride along as attributes.

Completed spans land in a bounded ring buffer (oldest evicted first).
Because a parent always finishes after its children, eviction can never
orphan a retained span: if a child is in the buffer, its parent finished
later and is in the buffer too.

Export is JSONL — one span object per line — consumed by the
``repro trace`` CLI subcommand, which rebuilds the tree, renders it, and
flags the slowest root-to-leaf path by cumulative cost.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ConfigurationError, ReproError


@dataclass
class Span:
    """One traced operation: a named interval on the logical clock."""

    span_id: int
    parent_id: int | None
    name: str
    start: int
    end: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ticks(self) -> int:
        """Logical duration: the number of trace events inside this span."""
        return (self.end - self.start) if self.end is not None else 0

    @property
    def cost(self) -> float:
        """The span's deterministic cost: an explicit ``cost`` attr, else ticks."""
        explicit = self.attrs.get("cost")
        return float(explicit) if explicit is not None else float(self.ticks)

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start=data["start"],
            end=data.get("end"),
            attrs=dict(data.get("attrs", {})),
        )


class Tracer:
    """Produces nested spans over a deterministic tick clock."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigurationError("tracer capacity must be positive")
        self.capacity = capacity
        self._clock = 0
        self._next_id = 1
        self._stack: list[Span] = []
        self._finished: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0

    def _tick(self) -> int:
        now = self._clock
        self._clock += 1
        return now

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child span of the innermost open span (or a new root)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start=self._tick(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self._tick()
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
            self._finished.append(span)

    def spans(self) -> list[Span]:
        """Completed spans, in finish order (children before their parent)."""
        return list(self._finished)

    def export_jsonl(self) -> str:
        """One JSON object per line, finish order."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in self.spans())


def _span_from_line(data: object, line_no: int) -> Span:
    """Build a Span from one decoded JSONL line, with strict field checks.

    Interleaved writes from two processes (or a corrupted file) can
    produce lines that *are* valid JSON but are not span objects — a bare
    number, a list, a dict with a string ``start``.  Without these checks
    such lines crash later, deep inside rendering arithmetic; with them
    the error names the line and the offending field.
    """
    if not isinstance(data, dict):
        raise ReproError(
            f"trace line {line_no} is valid JSON but not a span object "
            f"(got {type(data).__name__}); was this file written by "
            "interleaved processes?"
        )
    span = Span.from_dict(data)
    for label, value, optional in (
        ("span_id", span.span_id, False),
        ("start", span.start, False),
        ("end", span.end, True),
        ("parent_id", span.parent_id, True),
    ):
        if optional and value is None:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ReproError(
                f"trace line {line_no} field {label!r} must be an integer, "
                f"got {value!r}"
            )
    if not isinstance(span.name, str):
        raise ReproError(
            f"trace line {line_no} field 'name' must be a string, "
            f"got {span.name!r}"
        )
    return span


def parse_jsonl(text: str, allow_truncated_tail: bool = False) -> list[Span]:
    """Inverse of :meth:`Tracer.export_jsonl` (blank lines ignored).

    A killed run can leave a *partial last line* behind; that line does
    not decode, and the error says so explicitly instead of a generic
    parse failure.  With ``allow_truncated_tail=True`` the partial tail
    is dropped and the intact prefix is returned — the ``repro trace
    --input --allow-truncated`` recovery path.  Spans are exported in
    finish order (parents after children), so losing the tail loses the
    outermost parents: spans orphaned by the cut are re-rooted
    (``parent_id=None``) so the prefix still validates and renders.
    Truncation forgiveness only ever applies to the final non-blank
    line; garbage in the middle of the file always raises.
    """
    spans = []
    lines = text.splitlines()
    last_line_no = max(
        (i for i, line in enumerate(lines, start=1) if line.strip()), default=0
    )
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_no == last_line_no:
                if allow_truncated_tail:
                    retained = {span.span_id for span in spans}
                    for span in spans:
                        if span.parent_id not in retained:
                            span.parent_id = None
                    break
                raise ReproError(
                    f"trace line {line_no} (the last line) is truncated — "
                    "likely a killed run; re-run with --allow-truncated to "
                    f"render the intact prefix ({exc})"
                ) from exc
            raise ReproError(
                f"trace line {line_no} does not parse: {exc}"
            ) from exc
        try:
            spans.append(_span_from_line(data, line_no))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"trace line {line_no} does not parse: {exc}"
            ) from exc
    return spans


def merge_span_groups(
    groups: Sequence[Sequence[Span]], parent_id: int | None = None, id_base: int = 0
) -> list[Span]:
    """Concatenate independently-traced span groups into one id space.

    Each group (e.g. one serving bucket's trace) carries ids starting at 1;
    merging reassigns ids deterministically in group order and optionally
    reparents each group's roots under ``parent_id`` (the engine hangs
    bucket traces under its ``serve.execute`` span this way).
    """
    merged: list[Span] = []
    offset = id_base
    for group in groups:
        if not group:
            continue
        remap = {span.span_id: offset + i + 1 for i, span in enumerate(group)}
        for span in group:
            merged.append(
                Span(
                    span_id=remap[span.span_id],
                    parent_id=remap[span.parent_id]
                    if span.parent_id in remap
                    else parent_id,
                    name=span.name,
                    start=span.start,
                    end=span.end,
                    attrs=dict(span.attrs),
                )
            )
        offset += len(group)
    return merged


def validate_spans(spans: Sequence[Span]) -> None:
    """Raise :class:`ReproError` unless parentage is well-formed and acyclic."""
    by_id: dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            raise ReproError(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    for span in spans:
        if span.parent_id is not None and span.parent_id not in by_id:
            raise ReproError(
                f"span {span.span_id} ({span.name!r}) has missing parent "
                f"{span.parent_id}"
            )
    for span in spans:
        seen = {span.span_id}
        cursor = span
        while cursor.parent_id is not None:
            if cursor.parent_id in seen:
                raise ReproError(f"span parentage cycle through {cursor.parent_id}")
            seen.add(cursor.parent_id)
            cursor = by_id[cursor.parent_id]


def _children(spans: Sequence[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return children


def slowest_path(spans: Sequence[Span]) -> list[Span]:
    """The root-to-leaf chain with the largest cumulative cost.

    Greedy maximal descent: start at the costliest root, at every level
    step into the costliest child.  With tick costs this is "where did the
    events go"; with explicit ``cost`` attrs (predicted seconds, op
    counts) it is "where did the time go".
    """
    children = _children(spans)
    roots = children.get(None, [])
    if not roots:
        return []
    path = [max(roots, key=lambda s: (s.cost, -s.start))]
    while True:
        next_level = children.get(path[-1].span_id, [])
        if not next_level:
            return path
        path.append(max(next_level, key=lambda s: (s.cost, -s.start)))


def render_span_tree(spans: Sequence[Span]) -> str:
    """An ASCII tree of the span forest, slowest path flagged with ``*``.

    Shows each span's logical tick duration and its attributes; the line
    prefix marks membership in :func:`slowest_path`.
    """
    validate_spans(spans)
    children = _children(spans)
    hot = {span.span_id for span in slowest_path(spans)}
    lines: list[str] = []

    def visit(span: Span, depth: int) -> None:
        marker = "*" if span.span_id in hot else " "
        attrs = ""
        if span.attrs:
            inner = " ".join(f"{k}={span.attrs[k]}" for k in sorted(span.attrs))
            attrs = f"  [{inner}]"
        lines.append(f"{marker} {'  ' * depth}{span.name} ({span.ticks} ticks){attrs}")
        for child in children.get(span.span_id, []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    if hot:
        lines.append("")
        lines.append(
            "slowest path: " + " -> ".join(s.name for s in slowest_path(spans))
        )
    return "\n".join(lines)
