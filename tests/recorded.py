"""The events a tracer emits, recorded by an observer: a tracer keeps none."""

from __future__ import annotations


def recorded(tracer, events: list | None = None) -> list[dict]:
    """The list, ``events`` or a new one, that each event ``tracer`` emits
    from now on is appended to, in emit order, deliver events included.
    Record before attaching a monitor engine: an observer added first sees
    each event before the verdicts its observers emit at it."""
    events = [] if events is None else events
    tracer.add_observer(events.append)
    return events
