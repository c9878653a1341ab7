"""The traced run: a staged pipeline of the layers' public functions.

The end-to-end passes call ``OutsourcedDatabase`` and let the program
do the rest.  The traced pass replays the *same* generated ops through
the same public calls ``RemoteColumn._exchange``,
``LoopbackTransport.exchange`` and ``ColumnCatalog.dispatch`` make, one
stage at a time, and records a span around each stage from here — no
file under ``src/`` knows it is being measured:

    TrustedClient.make_query | encrypt_value
      -> request_to_dict + encode_frame        (client)
      -> decode_frame + request_from_dict      (server)
      -> ColumnCatalog.handle                  (server)
           SecureServer.execute | insert | delete | merge_pending
           WalWriter.append
      -> response_to_dict + encode_frame       (server)
      -> decode_frame + response_from_dict     (client)
      -> TrustedClient.decrypt_results

Inside ``handle`` only the engine instance obtained through
``catalog.server(name)`` and the ``WalWriter`` behind ``catalog.wal``
are wrapped; the engine split and all counts come from the existing
public ``obs.metrics`` registry, as deltas over the timed ops.
A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from typing import Dict, List

from harness import COLUMN, KEY_SEED
from repro.core.client import TrustedClient
from repro.errors import ReproError
from repro.net.catalog import ColumnCatalog
from repro.net.protocol import (
    CONFIG_DEFAULTS,
    CreateColumnRequest,
    DeleteRequest,
    ErrorResponse,
    InsertRequest,
    QueryRequest,
    decode_frame,
    encode_frame,
    error_response_for,
    frame_codec,
    raise_error_response,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
)

#: What ``codec="auto"`` negotiates against this repo's own endpoint.
CODEC = "binary"

#: ``QueryStats`` phases, as the registry counters that mirror them.
ENGINE_SECONDS = {
    "engine.search_ms": "query.search_seconds",
    "engine.crack_ms": "query.crack_seconds",
    "engine.tree_insert_ms": "query.insert_seconds",
    "engine.scan_ms": "query.scan_seconds",
}


class Recorder:
    """Spans kept in memory: ``[name, start, end, parent, op]``.

    ``parent`` is the index of the enclosing span (-1 for a stage) and
    ``op`` the id shared by every span of one op (-1 during set-up).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = -1

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, method: str, name: str) -> None:
        """Shadow ``owner.method`` on the *instance* with a traced call."""
        setattr(owner, method,
                functools.partial(self.call, name, getattr(owner, method)))

    def self_seconds(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def dump_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                    "op": None if op < 0 else op,
                }) + "\n")


def _encode_request(request) -> bytes:
    return encode_frame(request_to_dict(request), codec=CODEC)


def _decode_request(frame: bytes):
    return request_from_dict(decode_frame(frame))


def _handle(catalog: ColumnCatalog, request):
    # The error isolation ``ColumnCatalog._serve_one`` applies.
    try:
        return catalog.handle(request)
    except ReproError as exc:
        return error_response_for(exc)


def _encode_response(response, request_frame: bytes) -> bytes:
    return encode_frame(
        response_to_dict(response), codec=frame_codec(request_frame)
    )


def _decode_response(reply: bytes):
    return response_from_dict(decode_frame(reply))


class StagedSession:
    """Duck-types the session calls the op loop makes (``query``,
    ``insert``, ``delete``, ``bytes_sent``, ``bytes_received``) over
    the staged pipeline."""

    def __init__(self, spec, inputs, catalog=None) -> None:
        self.recorder = recorder = Recorder()
        call = recorder.call
        self._catalog = catalog if catalog is not None else ColumnCatalog()
        self._counters = self._catalog.obs.metrics
        self.client = call(
            "client.keygen", TrustedClient, seed=KEY_SEED,
            ambiguity=spec.ambiguity,
        )
        rows, row_ids = call(
            "client.encrypt_dataset", self.client.encrypt_dataset,
            inputs.values,
        )
        self._exchange(
            CreateColumnRequest(
                column=COLUMN,
                rows=tuple(rows),
                row_ids=tuple(int(i) for i in row_ids),
                config=dict(CONFIG_DEFAULTS,
                            auto_merge_threshold=spec.merge_threshold),
            ),
            "create",
        )
        server = self._catalog.server(COLUMN)
        for method in ("execute", "insert", "delete", "merge_pending"):
            recorder.wrap(server, method, "server." + method)
        if self._catalog.wal is not None:
            recorder.wrap(self._catalog.wal, "append", "wal.append")
        self._per_value = 2 if spec.ambiguity else 1
        self._next_logical = len(inputs.values)
        self._physical: Dict[int, List[int]] = {}
        self.timed_from = spec.warmup
        self._baseline: Dict[str, float] = {}
        self._baseline_epoch = 0
        self.kinds: List[str] = []
        self.bytes_sent = 0
        self.bytes_received = 0
        self.query_reply_bytes = 0
        self.rows_decrypted = 0
        self.rows_real = 0

    # -- the pipeline ---------------------------------------------------------

    def _exchange(self, request, tag: str = "request"):
        call = self.recorder.call
        frame = call("codec.%s_encode" % tag, _encode_request, request)
        decoded = call("codec.%s_decode" % tag, _decode_request, frame)
        response = call("catalog.handle", _handle, self._catalog, decoded)
        reply = call("codec.response_encode", _encode_response, response,
                     frame)
        envelope = call("codec.response_decode", _decode_response, reply)
        if self.recorder.op >= 0:
            self.bytes_sent += len(frame)
            self.bytes_received += len(reply)
        self._last_reply_bytes = len(reply)
        if isinstance(envelope, ErrorResponse):
            raise_error_response(envelope)
        return envelope

    def _begin(self, kind: str) -> None:
        self.recorder.op = len(self.kinds)
        if self.recorder.op == self.timed_from:
            self._baseline = self._counter_values()
            self._baseline_epoch = self.epochs()
        self.kinds.append(kind)

    def query(self, low, high):
        self._begin("q")
        message = self.recorder.call(
            "client.make_query", self.client.make_query, low, high
        )
        response = self._exchange(
            QueryRequest(column=COLUMN, query=message)
        ).response
        result = self.recorder.call(
            "client.decrypt", self.client.decrypt_results,
            response.row_ids, response.rows,
        )
        if self.recorder.op >= self.timed_from:
            self.query_reply_bytes += self._last_reply_bytes
            self.rows_decrypted += result.returned_rows
            self.rows_real += len(result.values)
        return result

    def insert(self, value: int) -> int:
        self._begin("i")
        rows = self.recorder.call(
            "client.encrypt_value", self.client.encrypt_value, value
        )
        response = self._exchange(
            InsertRequest(column=COLUMN, rows=tuple(rows))
        )
        logical_id = self._next_logical
        self._next_logical += 1
        self._physical[logical_id] = list(response.row_ids)
        return logical_id

    def delete(self, logical_id: int) -> None:
        self._begin("d")
        physical = self._physical.get(logical_id)
        if physical is None:
            first = logical_id * self._per_value
            physical = list(range(first, first + self._per_value))
        self._exchange(DeleteRequest(column=COLUMN, row_ids=tuple(physical)))

    # -- reading the trace ----------------------------------------------------

    def _counter_values(self) -> Dict[str, float]:
        return dict(self._counters.snapshot()["counters"])

    def counter_deltas(self) -> Dict[str, float]:
        """Registry counters, as deltas over the timed ops."""
        now = self._counter_values()
        return {
            name: value - self._baseline.get(name, 0)
            for name, value in now.items()
        }

    def epochs(self) -> int:
        """The column's mutation epoch: one bump per acknowledged
        mutation since it was created."""
        return self._catalog.epoch(COLUMN)

    def timed_epochs(self) -> int:
        return self.epochs() - self._baseline_epoch


def _mean(samples, scale: float) -> float:
    return scale * statistics.fmean(samples) if samples else 0.0


def layer_metrics(session: StagedSession, untraced_seconds: float,
                  staged_seconds: float) -> Dict[str, float]:
    """The per-layer table of one staged pass.

    ``untraced_seconds`` is what the untraced loopback pass took for
    the same timed ops, ``staged_seconds`` what this pass took.
    """
    recorder = session.recorder
    own = recorder.self_seconds()
    first = session.timed_from
    kinds = session.kinds
    setup: Dict[str, float] = {}
    self_by: Dict[str, List[float]] = {}
    total_by: Dict[str, List[float]] = {}
    per_op: Dict[int, float] = {}
    for span, self_time in zip(recorder.spans, own):
        name, start, end, parent, op = span
        if op < 0:
            setup[name] = setup.get(name, 0.0) + (end - start)
            continue
        if op < first:
            continue
        key = (name, kinds[op])
        self_by.setdefault(key, []).append(self_time)
        total_by.setdefault(key, []).append(end - start)
        if parent < 0:
            per_op[op] = per_op.get(op, 0.0) + (end - start)

    def own_samples(name: str, *op_kinds: str) -> List[float]:
        return [
            sample for kind in (op_kinds or "qid")
            for sample in self_by.get((name, kind), ())
        ]

    def total(name: str) -> float:
        return sum(sum(samples) for (span_name, _), samples
                   in total_by.items() if span_name == name)

    counters = session.counter_deltas()
    queries = kinds[first:].count("q")
    stage_seconds = sum(per_op.values())
    engine_seconds = sum(
        counters.get(counter, 0.0) for counter in ENGINE_SECONDS.values()
    )
    merged_rows = (counters.get("index.ripple_inserts", 0)
                   + counters.get("index.row_deletes", 0))
    decrypt = own_samples("client.decrypt")
    fast = counters.get("kernel.fast_products", 0)
    exact = counters.get("kernel.exact_products", 0)
    metrics = {
        "client.encrypt_dataset_s": setup.get("client.encrypt_dataset", 0.0),
        "client.make_query_us": _mean(own_samples("client.make_query"), 1e6),
        "client.encrypt_value_us": _mean(
            own_samples("client.encrypt_value"), 1e6),
        "client.decrypt_ms": _mean(decrypt, 1e3),
        "client.decrypt_us_per_row": (
            1e6 * sum(decrypt) / session.rows_decrypted
            if session.rows_decrypted else 0.0),
        "client.useful_row_ratio": (
            session.rows_real / session.rows_decrypted
            if session.rows_decrypted else 0.0),
        "codec.request_encode_us": _mean(
            own_samples("codec.request_encode"), 1e6),
        "codec.request_decode_us": _mean(
            own_samples("codec.request_decode"), 1e6),
        "codec.response_encode_ms": _mean(
            own_samples("codec.response_encode", "q"), 1e3),
        "codec.response_decode_ms": _mean(
            own_samples("codec.response_decode", "q"), 1e3),
        "codec.bytes_per_row": (
            session.query_reply_bytes / session.rows_decrypted
            if session.rows_decrypted else 0.0),
        "codec.create_encode_s": setup.get("codec.create_encode", 0.0),
        "codec.create_decode_s": setup.get("codec.create_decode", 0.0),
        "catalog.handle_self_us": _mean(own_samples("catalog.handle"), 1e6),
        "catalog.epochs": float(session.timed_epochs()),
        "server.execute_self_ms": (
            1e3 * (total("server.execute") - engine_seconds) / queries
            if queries else 0.0),
        "server.insert_us": _mean(own_samples("server.insert"), 1e6),
        "server.delete_us": _mean(own_samples("server.delete"), 1e6),
        "server.merge_pending_s": total("server.merge_pending"),
        "server.merge_ms_per_row": (
            1e3 * total("server.merge_pending") / merged_rows
            if merged_rows else 0.0),
        "server.merges": float(counters.get("server.merges", 0)),
        "server.worst_op_ms": 1e3 * max(per_op.values(), default=0.0),
        "engine.cracks": float(counters.get("query.cracks", 0)),
        "engine.cracked_rows": float(counters.get("query.cracked_rows", 0)),
        "engine.comparisons": float(counters.get("query.comparisons", 0)),
        "engine.share": (
            engine_seconds / stage_seconds if stage_seconds else 0.0),
        "kernel.fast_products": float(fast),
        "kernel.exact_products": float(exact),
        "kernel.cache_hits": float(counters.get("kernel.cache_hits", 0)),
        "kernel.fast_ratio": fast / (fast + exact) if fast + exact else 0.0,
        "wal.append_us": _mean(own_samples("wal.append"), 1e6),
        "wal.appends": float(counters.get("wal.appends", 0)),
        "wal.fsyncs": float(counters.get("wal.fsyncs", 0)),
        "trace.coverage": (
            stage_seconds / untraced_seconds if untraced_seconds else 0.0),
        "trace.overhead_ratio": (
            staged_seconds / untraced_seconds if untraced_seconds else 0.0),
    }
    for metric, counter in ENGINE_SECONDS.items():
        metrics[metric] = (
            1e3 * counters.get(counter, 0.0) / queries if queries else 0.0
        )
    return metrics
