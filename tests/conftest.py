"""Shared test helpers."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from proxystream.events import EventStore


@dataclass(frozen=True)
class Event:
    """One hand-written event: entity id, activity label, time and attributes."""

    entity_id: Any
    activity: str
    time: float
    attributes: Mapping[str, Any] = field(default_factory=dict)


def store_from_events(events, alphabet=None, *, event_schema=(), entity_schema=(),
                      entity_attributes=None, time_origin=None) -> EventStore:
    """Build a store from a hand-written list of ``Event`` objects.

    Entity codes follow first appearance in the list, the alphabet defaults to
    the sorted labels, and attribute values are encoded by their fields.
    Checking the columns is left to the store.
    """
    alphabet = tuple(sorted({e.activity for e in events}) if alphabet is None else alphabet)
    codes = {eid: code for code, eid in enumerate(dict.fromkeys(e.entity_id for e in events))}
    return EventStore(
        [e.time for e in events], [codes[e.entity_id] for e in events],
        [alphabet.index(e.activity) for e in events], list(codes), alphabet,
        event_schema=event_schema,
        event_attrs={f.name: [f.encode(e.attributes[f.name]) for e in events]
                     for f in event_schema},
        entity_schema=entity_schema,
        entity_attrs={f.name: [f.encode(entity_attributes[eid][f.name]) for eid in codes]
                      for f in entity_schema},
        time_origin=time_origin,
    )
