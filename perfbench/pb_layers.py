"""Per-layer metrics from the spans of a traced run.

Every timed layer reports its *self time* — span durations minus the
part their child spans cover — summed over the requests of the timed
window and divided by the number of operations (client requests, or
oracle calls for the reduction).  Each span belongs to exactly one
request tree, so the self times of all layers plus ``server.wire_s``
(client-observed time outside the server's ``handle_line``) add up to
the mean client-observed latency; ``trace.unaccounted_frac`` is how
far they miss it, and must stay under ``ACCOUNTING_TOLERANCE``.
"""

from __future__ import annotations

import json

from pathlib import Path

import pb_stats

#: Largest allowed |sum of self times + wire - client time| / client
#: time.  Self times partition each request tree, so only children
#: that run in parallel with each other (other threads or processes)
#: or outside their parent's interval can make them miss.
ACCOUNTING_TOLERANCE = 0.05

#: Benchmark layer (see ``pb_trace.TARGETS``) -> self-time metric.
SELF_TIME = {
    "server": "server.self_s",
    "dispatch": "dispatch.hop_s",
    "protocol": "protocol.parse_s",
    "tenants": "tenants.charge_s",
    "resolver": "resolver.resolve_s",
    "lineage": "lineage.s",
    "wmc.compiled": "wmc.self_s",
    "wmc.auto": "wmc.self_s",
    "circuit.compile": "circuit.compile_s",
    "circuit.eval": "circuit.eval_s",
    "circuit.worlds": "circuit.worlds_s",
    "tape.flatten": "tape.flatten_s",
    "tape.kernel": "tape.kernel_s",
    "scheduler.compile": "scheduler.compile_wait_s",
    "scheduler.coalesce": "scheduler.coalesce_wait_s",
    "store.read": "store.read_s",
    "store.write": "store.write_s",
    "evaluation": "evaluation.self_s",
    "lifted": "lifted.s",
    "estimate": "estimate.s",
    "reduction.build": "reduction.build_s",
    "matrices.solve": "matrices.solve_s",
    "reduction": "reduction.self_s",
}

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    **{name: ("s/op", "lower") for name in sorted(set(SELF_TIME.values()))},
    "server.wire_s": ("s/op", "lower"),
    "circuit.compile_nodes": ("count/op", "lower"),
    "circuit.eval_lanes": ("count/op", "lower"),
    "lineage.calls_per_request": ("count/op", "lower"),
    "tape.instr_lanes": ("count/op", "lower"),
    "scheduler.coalesced_lanes": ("count/op", "higher"),
    "store.bytes_written": ("bytes/op", "lower"),
    "estimate.samples": ("count/op", "lower"),
    "wmc.compiles": ("count/op", "lower"),
    "resolver.hit_ratio": ("ratio", "higher"),
    "store.hit_ratio": ("ratio", "higher"),
    "wmc.hit_ratio": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
    "failed_frac": ("ratio", "lower"),
}


class Span:
    __slots__ = ("key", "parent", "layer", "start", "end", "info",
                 "children")

    def __init__(self, pid, record):
        sid, parent, layer, start, end, info = record
        self.key = (pid, sid)
        self.parent = (pid, parent) if parent else None
        self.layer = layer
        self.start = start
        self.end = end
        self.info = info or {}
        self.children: list = []


def load_spans(directory) -> list[Span]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as lines:
            header = json.loads(next(lines))
            spans.extend(Span(header["pid"], json.loads(line))
                         for line in lines)
    return spans


def _link(spans) -> dict:
    """Wire up parent/child lists, including the hop from a
    dispatcher's worker call to the worker's ``handle_line``; returns
    the root spans by request id."""
    by_key = {span.key: span for span in spans}
    hops = {span.info["child"]: span for span in spans
            if span.layer == "dispatch" and span.info.get("child")}
    roots = {}
    for span in spans:
        parent = by_key.get(span.parent) if span.parent else None
        if parent is None and span.layer == "server":
            parent = hops.get(span.info.get("rid"))
        if parent is not None:
            parent.children.append(span)
        elif span.info.get("rid") is not None:
            roots[span.info["rid"]] = span
    return roots


def _walk(root):
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)


def layer_metrics(spans, client_ns: dict, ops: int) -> dict:
    """Per-layer metrics for the requests in ``client_ns``.

    ``client_ns`` maps request id -> client-observed nanoseconds;
    ``ops`` is the operation count the figures are divided by.  The
    two metrics that come from outside the spans
    (``trace.overhead_frac``, ``failed_frac``) are left to the
    caller."""
    roots = _link(spans)
    totals = dict.fromkeys(PER_LAYER, 0.0)
    counts = {"resolve": 0, "resolve_hit": 0, "read": 0, "read_hit": 0,
              "compiled": 0, "compiled_hit": 0}
    client_total = wire_total = self_total = 0.0
    for rid, client in client_ns.items():
        root = roots.get(rid)
        if root is None:
            raise ValueError(f"no server span for request {rid!r}")
        client_total += client
        wire_total += client - (root.end - root.start)
        for span in _walk(root):
            own = pb_stats.self_time(
                span.start, span.end,
                [(c.start, c.end) for c in span.children])
            self_total += own
            totals[SELF_TIME[span.layer]] += own
            info = span.info
            layer = span.layer
            if layer == "circuit.compile":
                totals["circuit.compile_nodes"] += info.get("nodes", 0)
                totals["wmc.compiles"] += 1
            elif layer == "circuit.eval":
                totals["circuit.eval_lanes"] += info.get("lanes", 0)
            elif layer == "lineage":
                totals["lineage.calls_per_request"] += 1
            elif layer == "tape.kernel":
                totals["tape.instr_lanes"] += (info.get("lanes", 0)
                                               * info.get("instr", 0))
            elif layer == "scheduler.coalesce":
                if info.get("pass", 0) > info.get("own", 0):
                    totals["scheduler.coalesced_lanes"] += info["pass"]
            elif layer == "store.write":
                totals["store.bytes_written"] += info.get("bytes", 0)
            elif layer == "store.read":
                counts["read"] += 1
                counts["read_hit"] += bool(info.get("hit"))
            elif layer == "estimate":
                totals["estimate.samples"] += info.get("samples", 0)
            elif layer == "resolver":
                counts["resolve"] += 1
                counts["resolve_hit"] += not any(
                    c.layer == "lineage" for c in span.children)
            elif layer == "wmc.compiled":
                counts["compiled"] += 1
                counts["compiled_hit"] += not span.children
    out = {name: value / ops for name, value in totals.items()}
    # Times were summed in nanoseconds.
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s/op":
            out[name] /= 1e9
    out["server.wire_s"] = wire_total / ops / 1e9
    out["resolver.hit_ratio"] = _ratio(counts["resolve_hit"],
                                       counts["resolve"])
    out["store.hit_ratio"] = _ratio(counts["read_hit"], counts["read"])
    out["wmc.hit_ratio"] = _ratio(counts["compiled_hit"],
                                  counts["compiled"])
    out["trace.unaccounted_frac"] = (
        abs(self_total + wire_total - client_total) / client_total)
    out.pop("trace.overhead_frac")
    out.pop("failed_frac")
    return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
