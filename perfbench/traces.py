"""Chrome-trace arithmetic for the traced run: coverage and self time."""

import json

# Spans that wrap a whole command, cell or request rather than a layer call.
# Time inside them but outside every layer span counts as unattributed.
WRAPPERS = {"scenario", "bench-cell", "family-workload", "fault-robustness",
            "sweep-cell", "run-document", "sweep-document", "http-request"}


def load(path):
    with open(path) as f:
        return [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]


def union_us(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_cover_us(events, lo=None, hi=None):
    """Time covered by any layer (non-wrapper) span, on any thread, clipped
    to [lo, hi] when given."""
    spans = []
    for e in events:
        if e["name"] in WRAPPERS:
            continue
        start, end = e["ts"], e["ts"] + e["dur"]
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
        if end > start:
            spans.append((start, end))
    return union_us(spans)


def self_times_us(events):
    """Per span name: duration minus the part its child spans cover.

    Spans on one thread nest, so children are the spans one level deeper
    inside the parent's interval on the same thread.
    """
    out = {}
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child-covered microseconds]

        def close(frame):
            event, covered = frame
            out[event["name"]] = out.get(event["name"], 0) + event["dur"] - covered

        for e in spans:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0])
        while stack:
            close(stack.pop())
    return out
