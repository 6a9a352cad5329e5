"""JSONL record/replay for workload schedules.

A recorded trace pins the *entire* event sequence -- arrival timestamps,
request contents (the Section VIII-A mix: source/destination sets, the
service chain, the 5 Mbps demand), pre-drawn holding times, and
background-load ticks -- so competing embedders and simulator
configurations (``incremental`` on/off, ``parallel_rows``) replay
bit-identical workloads from a file instead of re-deriving them from
seeds.  Replaying a recorded schedule through the same engine and
embedder yields identical per-request costs and acceptance decisions.

Format: one JSON object per line.  The first line is a header
(``{"record": "sof-workload-trace", "version": 2}``); every other line is
one :class:`~repro.workload.lifecycle.WorkloadEvent`.  Nodes may be ints,
strings, or (nested) tuples -- tuples are encoded as JSON arrays, which
is unambiguous because lists are unhashable and can never be graph
nodes.

Version history: version 1 traces are churn-only (``arrive`` /
``background``); version 2 adds ``fail`` / ``recover`` link events (each
carrying a ``link`` pair).  Readers accept both; :func:`dump_trace`
writes the oldest version that can represent the events, so churn-only
traces remain version 1 and replay under old readers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.core.problem import ServiceChain
from repro.online.requests import Request
from repro.workload.lifecycle import WorkloadEvent

TRACE_RECORD = "sof-workload-trace"
TRACE_VERSION = 2
#: Versions this reader can replay (1 = churn-only, 2 = + fail/recover).
SUPPORTED_TRACE_VERSIONS = (1, 2)


def _encode_node(node):
    """Tuples (the only non-scalar node shape) become JSON arrays."""
    if isinstance(node, tuple):
        return [_encode_node(item) for item in node]
    return node


def _decode_node(value):
    if isinstance(value, list):
        return tuple(_decode_node(item) for item in value)
    return value


def _encode_event(event: WorkloadEvent) -> dict:
    record = {"time": event.time, "kind": event.kind}
    if event.kind == "arrive":
        request = event.request
        # A non-finite hold ("never departs") is encoded as null: the
        # engine treats the two identically, and ``Infinity`` is not
        # valid JSON for strict parsers outside Python.
        hold = event.hold
        record["hold"] = (
            hold if hold is not None and math.isfinite(hold) else None
        )
        record["request"] = {
            "index": request.index,
            "sources": [_encode_node(n) for n in request.sources],
            "destinations": [_encode_node(n) for n in request.destinations],
            "chain": list(request.chain),
            "demand_mbps": request.demand_mbps,
        }
    elif event.kind == "background":
        record["links"] = [
            [_encode_node(u), _encode_node(v)] for u, v in event.links
        ]
        record["demand_mbps"] = event.demand_mbps
    elif event.kind in ("fail", "recover"):
        u, v = event.link
        record["link"] = [_encode_node(u), _encode_node(v)]
    else:
        raise ValueError(
            f"only schedule events (arrive/background/fail/recover) are "
            f"recordable, got kind {event.kind!r}"
        )
    return record


def _checked_demand(demand: float, record: dict) -> float:
    """``demand`` of trace ``record``, rejected unless finite and >= 0.

    Python's JSON reader accepts ``NaN`` and ``Infinity``; either would
    otherwise reach the load tracker mid-replay and poison link costs.
    """
    if not (demand >= 0) or math.isinf(demand):
        raise ValueError(
            f"{record['kind']} event at time {record['time']!r} has "
            f"demand_mbps {demand!r}; it must be >= 0 and finite"
        )
    return demand


def _decode_event(record: dict) -> WorkloadEvent:
    kind = record["kind"]
    if kind == "arrive":
        payload = record["request"]
        request = Request(
            index=payload["index"],
            sources=tuple(_decode_node(n) for n in payload["sources"]),
            destinations=tuple(
                _decode_node(n) for n in payload["destinations"]
            ),
            chain=ServiceChain(payload["chain"]),
            demand_mbps=_checked_demand(payload["demand_mbps"], record),
        )
        return WorkloadEvent(
            time=record["time"], kind="arrive", request=request,
            hold=record["hold"],
        )
    if kind == "background":
        links = tuple(
            (_decode_node(u), _decode_node(v)) for u, v in record["links"]
        )
        return WorkloadEvent(
            time=record["time"], kind="background", links=links,
            demand_mbps=_checked_demand(record["demand_mbps"], record),
        )
    if kind in ("fail", "recover"):
        u, v = record["link"]
        return WorkloadEvent(
            time=record["time"], kind=kind,
            link=(_decode_node(u), _decode_node(v)),
        )
    raise ValueError(f"unknown event kind {kind!r} in trace")


def dump_trace(
    events: Iterable[WorkloadEvent], meta: Optional[Dict] = None
) -> Iterator[str]:
    """Yield the JSONL lines of a trace (header first).

    ``meta`` is free-form JSON-serialisable provenance stored in the
    header (e.g. the topology name and seed the trace was generated
    against), so a replay can detect -- or reconstruct -- the
    environment the events assume.

    The header carries the oldest version that can represent the
    events: churn-only traces stay version 1 (replayable by pre-failure
    readers); any ``fail``/``recover`` event promotes the trace to
    version 2.
    """
    materialised = list(events)
    version = 2 if any(
        e.kind in ("fail", "recover") for e in materialised
    ) else 1
    header = {"record": TRACE_RECORD, "version": version}
    if meta:
        header["meta"] = meta
    yield json.dumps(header, sort_keys=True)
    for event in materialised:
        yield json.dumps(_encode_event(event), sort_keys=True)


def _parse_header(line: str) -> dict:
    header = json.loads(line)
    if not isinstance(header, dict) or header.get("record") != TRACE_RECORD:
        raise ValueError(f"not a workload trace: header {header!r}")
    if header.get("version") not in SUPPORTED_TRACE_VERSIONS:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r} "
            f"(supported: {SUPPORTED_TRACE_VERSIONS})"
        )
    return header


def load_trace(lines: Iterable[str]) -> List[WorkloadEvent]:
    """Parse JSONL lines back into a schedule (header validated)."""
    iterator = iter(lines)
    try:
        _parse_header(next(iterator))
    except StopIteration:
        raise ValueError("empty trace: missing header line") from None
    return [
        _decode_event(json.loads(line))
        for line in iterator
        if line.strip()
    ]


def load_trace_metadata(lines: Iterable[str]) -> Dict:
    """The ``meta`` provenance recorded in a trace's header line."""
    try:
        header = _parse_header(next(iter(lines)))
    except StopIteration:
        raise ValueError("empty trace: missing header line") from None
    return header.get("meta", {})


def write_trace(
    events: Iterable[WorkloadEvent],
    path: Union[str, Path],
    meta: Optional[Dict] = None,
) -> None:
    """Record a schedule to a JSONL file."""
    Path(path).write_text("\n".join(dump_trace(events, meta=meta)) + "\n")


def read_trace(path: Union[str, Path]) -> List[WorkloadEvent]:
    """Replay a schedule from a JSONL file."""
    return load_trace(Path(path).read_text().splitlines())


def read_trace_metadata(path: Union[str, Path]) -> Dict:
    """The ``meta`` provenance of a recorded trace file."""
    return load_trace_metadata(Path(path).read_text().splitlines())
