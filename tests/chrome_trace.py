"""Test oracle: the subset of the Chrome trace-event schema the exporters emit.

``repro.obs.chrome_trace_document`` writes the ``{"traceEvents": [...]}``
form; :func:`validate_chrome_trace` lists what a Perfetto or
``chrome://tracing`` load would trip over, and the tests run it on
freshly produced traces of every backend.
"""

from __future__ import annotations

from typing import Dict, List


def validate_chrome_trace(doc: dict) -> List[str]:
    """Check ``doc`` against the trace-event schema subset we emit.

    Returns a list of problems (empty ⇒ valid): every event needs
    ``ph``/``pid``/``tid``; complete events need numeric non-negative
    ``ts``/``dur``; async events need ``id`` + ``cat`` and must pair a
    begin with an end (same cat/id/pid) with ``end.ts >= begin.ts``.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    async_begins: Dict[tuple, float] = {}
    async_ends: Dict[tuple, float] = {}
    for i, event in enumerate(events):
        where = "event %d" % i
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        ph = event.get("ph")
        if ph not in ("X", "b", "e", "M"):
            problems.append("%s: unsupported ph %r" % (where, ph))
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append("%s (%s): %s not an int" % (where, ph, field))
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append("%s (%s %r): ts not numeric" % (where, ph, event.get("name")))
            continue
        if ts < 0:
            problems.append("%s (%s %r): negative ts" % (where, ph, event.get("name")))
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append("%s (X %r): dur not numeric" % (where, event.get("name")))
            elif dur < 0:
                problems.append("%s (X %r): negative dur" % (where, event.get("name")))
        else:
            if "id" not in event:
                problems.append("%s (%s %r): async event without id" % (where, ph, event.get("name")))
                continue
            if "cat" not in event:
                problems.append("%s (%s %r): async event without cat" % (where, ph, event.get("name")))
                continue
            key = (event["cat"], event["id"], event["pid"])
            if ph == "b":
                if key in async_begins:
                    problems.append("%s: duplicate async begin %r" % (where, key))
                async_begins[key] = ts
            else:
                if key in async_ends:
                    problems.append("%s: duplicate async end %r" % (where, key))
                async_ends[key] = ts
    for key, ts in async_begins.items():
        if key not in async_ends:
            problems.append("async begin %r has no matching end" % (key,))
        elif async_ends[key] < ts:
            problems.append("async span %r ends before it begins" % (key,))
    for key in async_ends:
        if key not in async_begins:
            problems.append("async end %r has no matching begin" % (key,))
    return problems
