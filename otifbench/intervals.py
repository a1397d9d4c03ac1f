"""Interval arithmetic over the OTIF timeline's Chrome trace-event export.

The timeline (src/util/trace_timeline.h) keeps a fixed-size ring of
begin/end events per thread. This module pairs those events into spans,
merges overlapping spans across threads into a union, and splits a window
(the benchmark's ``bench/prepare`` span) into the time its child spans cover
and its self time.

A ring that wrapped has forgotten its oldest events. Reading such a thread
as idle would turn lost spans into self time, so a window that reaches back
past what any wrapped ring still holds is reported as truncated instead.
"""

import json


class TruncatedTimeline(Exception):
    """The timeline lost events inside the window being analysed."""


def load_events(path):
    """Returns the trace events of a Chrome trace-event JSON file."""
    with open(path) as f:
        return json.load(f)["traceEvents"]


def pair_spans(events, capacity):
    """Pairs begin/end events per thread.

    Returns ``(spans, horizon)``: ``spans`` is a list of
    ``(name, tid, start, end)`` tuples and ``horizon`` the latest timestamp
    before which some wrapped ring may have lost events (None when no ring
    wrapped). A ring wrapped when it holds ``capacity`` events or when it
    starts with an end event whose begin is gone.
    """
    by_tid = {}
    for e in events:
        if e.get("ph") in ("B", "E"):
            by_tid.setdefault(e["tid"], []).append(e)
    spans = []
    horizon = None
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: e["ts"])
        wrapped = len(evs) >= capacity
        stack = []
        for e in evs:
            if e["ph"] == "B":
                stack.append(e)
            elif stack and stack[-1]["name"] == e["name"]:
                b = stack.pop()
                spans.append((e["name"], tid, b["ts"], e["ts"]))
            else:
                wrapped = True
        if wrapped:
            first = evs[0]["ts"]
            horizon = first if horizon is None else max(horizon, first)
    return spans, horizon


def union(intervals):
    """Merges (start, end) intervals into a sorted, disjoint list."""
    merged = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def clip(merged, lo, hi):
    """Restricts a merged interval list to [lo, hi]."""
    return [(max(s, lo), min(e, hi)) for s, e in merged if e > lo and s < hi]


def subtract(a, b):
    """a minus b, both merged interval lists."""
    out = []
    j = 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            k += 1
        if cur < e:
            out.append((cur, e))
    return out


def length(merged):
    return sum(e - s for s, e in merged)


def prepare_phases(events, capacity, window="bench/prepare"):
    """Splits each ``window`` span into Prepare phases, in seconds.

    - ``tune``: the union of ``tuner/*`` spans on any thread.
    - ``pipeline``: pipeline work outside the tuner (``pipeline/run``,
      ``stage/*``, ``proxy/*``, ``refine/*``): theta_best selection, S*
      and the theta_best evaluation.
    - ``train``: self time, the part of the window no span covers (proxy
      and tracker training, window selection, the refiner, and the split
      simulation Prepare does itself).

    Returns a list with one dict per window, oldest first. Raises
    TruncatedTimeline when no window is complete or a window starts before
    the horizon of a wrapped ring.
    """
    spans, horizon = pair_spans(events, capacity)
    windows = sorted((s, e) for name, _, s, e in spans if name == window)
    if not windows:
        raise TruncatedTimeline("no complete %r span in the timeline" % window)
    tuner = union((s, e) for n, _, s, e in spans if n.startswith("tuner/"))
    work = union((s, e) for n, _, s, e in spans
                 if n == "pipeline/run" or n.startswith(("stage/", "proxy/",
                                                         "refine/")))
    phases = []
    for lo, hi in windows:
        if horizon is not None and lo <= horizon:
            raise TruncatedTimeline(
                "a timeline ring wrapped after the %r window began; raise "
                "OTIF_TRACE_TIMELINE_EVENTS (now %d)" % (window, capacity))
        tune = clip(tuner, lo, hi)
        pipeline = subtract(clip(work, lo, hi), tune)
        covered = length(tune) + length(pipeline)
        # Chrome trace timestamps are microseconds.
        phases.append({
            "wall_s": (hi - lo) / 1e6,
            "tune_s": length(tune) / 1e6,
            "pipeline_s": length(pipeline) / 1e6,
            "train_s": (hi - lo - covered) / 1e6,
        })
    return phases
