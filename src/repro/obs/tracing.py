"""Span-based tracing with a true no-op fast path when disabled.

A :class:`Tracer` hands out context-managed spans::

    with tracer.span("crack", rows=n):
        ...

Spans nest (the tracer keeps an active-span stack **per thread**), are
timed with ``time.perf_counter``, close correctly when the body raises
(recording the exception type on the span), and serialise to JSONL for
offline inspection (``repro trace``, benchmark artifacts).

The disabled path is the design centre: ``span()`` on a disabled tracer
returns a shared singleton whose ``__enter__``/``__exit__`` do nothing —
no allocation, no clock read, no list append — so instrumentation can
stay in every hot path permanently.  The overhead budget is enforced by
``benchmarks/bench_obs_overhead.py``.

Distributed tracing
-------------------

Every span carries three identity fields on top of the local
``index``/``parent``/``depth`` triple:

* ``span_id`` — process-unique (a per-tracer random prefix + the span's
  index), stable across JSONL round trips;
* ``trace_id`` — shared by every span in one causal tree; minted at the
  local root, inherited by children and by remotely-parented spans;
* ``parent_id`` — the ``span_id`` of the causal parent.  Equal to the
  same-thread enclosing span's id, **unless** the span adopted a remote
  context (``remote=``), in which case it is the remote caller's id.

:meth:`Tracer.wire_context` exports the active span as the protocol's
``trace`` field (``{"trace_id", "parent", "sampled"}``) and
``span(name, remote=ctx)`` adopts one on the receiving side, so a
client's ``rpc`` span and the server's ``rpc-serve`` span link into one
tree even though they live in different processes.  A context with
``sampled: false`` suppresses recording (head sampling: the caller's
decision wins).  :func:`merge_traces` stitches the two JSONL dumps back
together.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional


class _NullSpan:
    """The shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        """Ignore attributes (tracing is off)."""
        return self

    @property
    def duration(self) -> float:
        return 0.0


#: Singleton no-op span; identity-comparable so tests can assert the
#: disabled fast path really is allocation-free.
NULL_SPAN = _NullSpan()


_ROOT_TRACE_ID = "%s%08x"


class Span:
    """One timed, named, attributed region of execution.

    Created via :meth:`Tracer.span`; use as a context manager.  The
    span is appended to the tracer's record list on *enter* (so the
    dump is ordered by start time) and finalised on exit.
    """

    __slots__ = ("name", "attrs", "start", "end", "index", "parent",
                 "depth", "error", "trace_id", "parent_id",
                 "_tracer", "_remote", "_span_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any],
                 remote: Optional[Dict[str, Any]] = None):
        self._tracer = tracer
        self._remote = remote
        self.name = name
        self.attrs = attrs
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.index: int = -1
        self.parent: Optional[int] = None
        self.depth: int = 0
        self.error: Optional[str] = None
        self._span_id: Optional[str] = None
        self.trace_id: str = ""
        self.parent_id: Optional[str] = None

    @property
    def span_id(self) -> str:
        """Process-unique id: the tracer's random prefix + the index.

        Derived lazily — most spans are leaves whose id is never read,
        so the hot enter path skips the string formatting.
        """
        span_id = self._span_id
        if span_id is None:
            span_id = self._span_id = "%s-%x" % (
                self._tracer.trace_prefix, self.index
            )
        return span_id

    def __enter__(self) -> "Span":
        tracer = self._tracer
        local = tracer._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        remote = self._remote
        if stack:
            local_parent = stack[-1]
            self.parent = local_parent.index
            self.depth = len(stack)
            if remote is None:
                self.trace_id = local_parent.trace_id
                self.parent_id = local_parent.span_id
            else:
                # Adopted context: the causal parent lives in another
                # process (or another thread's exported span).
                self.trace_id = remote["trace_id"]
                self.parent_id = remote["parent"]
        elif remote is not None:
            self.trace_id = remote["trace_id"]
            self.parent_id = remote["parent"]
        lock = tracer._lock
        lock.acquire()
        spans = tracer.spans
        self.index = len(spans)
        spans.append(self)
        lock.release()
        if not self.trace_id:
            # A local root mints the trace id: the tracer's random
            # prefix keeps it globally unique, the index keeps it
            # cheap (no per-span entropy syscall on the hot path).
            self.trace_id = _ROOT_TRACE_ID % (tracer.trace_prefix,
                                              self.index)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.error = "%s: %s" % (exc_type.__name__, exc)
        stack = self._tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - malformed nesting, keep best effort
            try:
                stack.remove(self)
            except ValueError:
                pass
        return False

    def set(self, **attrs) -> "Span":
        """Attach or update attributes mid-span; chainable."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        """Seconds from enter to exit (to "now" for an open span)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible record (attributes flattened in)."""
        record = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "index": self.index,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.error is not None:
            record["error"] = self.error
        for key, value in self.attrs.items():
            record.setdefault(key, value)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Span(%r, %.6fs)" % (self.name, self.duration)


class Tracer:
    """Factory and store for spans.

    Concurrency-safe: the active-span stack is per-thread (spans opened
    on a connection's thread nest among themselves, never across
    threads) and the shared ``spans`` record list is appended under a
    lock, so ``index`` assignment stays race-free.

    Args:
        enabled: start enabled; flip at runtime with :meth:`enable` /
            :meth:`disable` (a query in flight keeps the spans it
            already opened).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self.trace_prefix = os.urandom(4).hex()
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's active-span stack (created lazily)."""
        try:
            return self._local.stack
        except AttributeError:
            stack: List[Span] = []
            self._local.stack = stack
            return stack

    def span(self, name: str, remote: Optional[Dict[str, Any]] = None,
             **attrs):
        """A context-managed span, or the no-op singleton when disabled.

        Args:
            remote: an adopted trace context (the decoded wire ``trace``
                field — see :meth:`wire_context`): the new span joins
                that trace with the remote span as its causal parent.
                ``sampled: false`` suppresses the span entirely (the
                caller's head-sampling decision wins).
        """
        if not self.enabled:
            return NULL_SPAN
        if remote is not None and not remote.get("sampled", True):
            return NULL_SPAN
        return Span(self, name, attrs, remote=remote)

    @property
    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def wire_context(self) -> Optional[Dict[str, Any]]:
        """The active span as a protocol ``trace`` field, or ``None``.

        Returns ``None`` when tracing is disabled or no span is open on
        the calling thread — callers then omit the field from the wire,
        keeping frames byte-identical to untraced peers.
        """
        if not self.enabled:
            return None
        stack = self._stack
        if not stack:
            return None
        span = stack[-1]
        return {"trace_id": span.trace_id, "parent": span.span_id,
                "sampled": True}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop recorded spans (open spans stay on the stack)."""
        with self._lock:
            self.spans = []

    # -- exporters -----------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All recorded spans as JSON-compatible dicts, start-ordered."""
        with self._lock:
            spans = list(self.spans)
        return [span.to_dict() for span in spans]

    def to_jsonl(self) -> str:
        """One JSON object per line, one line per span."""
        return "\n".join(json.dumps(record) for record in self.to_dicts())

    def dump_jsonl(self, path: str) -> str:
        """Write :meth:`to_jsonl` to ``path``; returns the path."""
        content = self.to_jsonl()
        with open(path, "w") as handle:
            if content:
                handle.write(content + "\n")
        return path

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregate: count and total seconds.

        Note that nested spans overlap their parents, so totals across
        *different* names do not add up to wall-clock time.
        """
        with self._lock:
            spans = list(self.spans)
        totals: Dict[str, Dict[str, float]] = {}
        for span in spans:
            entry = totals.setdefault(span.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            if span.end is not None:
                entry["seconds"] += span.duration
        return totals

    def subtree_summary(self, root: Span) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate over ``root``'s recorded descendants.

        Membership follows the ``parent_id`` chain (so it includes
        spans opened on other threads that adopted ``root``'s exported
        context — e.g. batch slots on the catalog pool), not the
        per-thread nesting stack.  ``root`` itself is excluded.
        """
        if not isinstance(root, Span) or root.index < 0:
            return {}
        with self._lock:
            tail = self.spans[root.index + 1:]
        members = {root.span_id}
        totals: Dict[str, Dict[str, float]] = {}
        for span in tail:
            if span.parent_id in members:
                members.add(span.span_id)
                entry = totals.setdefault(span.name,
                                          {"count": 0, "seconds": 0.0})
                entry["count"] += 1
                if span.end is not None:
                    entry["seconds"] += span.duration
        return totals


# -- trace-dump merging ------------------------------------------------


def load_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL span dump (one record per non-empty line)."""
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def merge_traces(*record_lists: Iterable[Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
    """Stitch span-record lists (e.g. client + server dumps) into one tree.

    Records are linked by ``span_id``/``parent_id`` — the identifiers
    are process-unique, so dumps from different processes merge without
    renumbering.  Returns copies in depth-first tree order, each with a
    ``tree_depth`` field giving its depth in the *merged* tree (a
    server span parented by a client span is one level below it, even
    though its local ``depth`` was 0).  Records whose parent is absent
    from every input become roots.

    ``start`` timestamps are ``perf_counter`` values and are only
    comparable within one source list, so sibling order is by start
    time per parent — exact within a process, arbitrary-but-stable
    across processes.
    """
    seen: set = set()
    records: List[Dict[str, Any]] = []
    for one_list in record_lists:
        for record in one_list:
            span_id = record.get("span_id")
            if isinstance(span_id, str) and span_id:
                if span_id in seen:
                    continue
                seen.add(span_id)
            records.append(dict(record))
    by_id = {record["span_id"]: record for record in records
             if isinstance(record.get("span_id"), str)
             and record.get("span_id")}
    children: Dict[str, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for record in records:
        parent_id = record.get("parent_id")
        if isinstance(parent_id, str) and parent_id in by_id \
                and parent_id != record.get("span_id"):
            children.setdefault(parent_id, []).append(record)
        else:
            roots.append(record)

    def start_key(record: Dict[str, Any]) -> float:
        start = record.get("start")
        return float(start) if isinstance(start, (int, float)) else 0.0

    merged: List[Dict[str, Any]] = []
    stack = [(record, 0)
             for record in sorted(roots, key=start_key, reverse=True)]
    while stack:
        record, depth = stack.pop()
        record["tree_depth"] = depth
        merged.append(record)
        kids = children.get(record.get("span_id"), [])
        for child in sorted(kids, key=start_key, reverse=True):
            stack.append((child, depth + 1))
    return merged
