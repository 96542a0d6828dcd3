"""Projection / mapping: the stateless, duplicate-preserving pi operator."""

from __future__ import annotations

from typing import Callable, Sequence

from ..temporal.batch import Batch
from ..temporal.element import Payload, StreamElement, as_payload
from .base import StatelessOperator


class Project(StatelessOperator):
    """Apply ``mapping`` to every payload, keeping the validity interval.

    The mapping must return a tuple (or a value coercible to a payload).
    Duplicate payloads produced by the mapping are preserved — duplicate
    elimination is a separate operator, matching the extended relational
    algebra's bag semantics.
    """

    def __init__(self, mapping: Callable[[Payload], Payload], name: str = "") -> None:
        super().__init__(name=name or "project")
        self.mapping = mapping

    def _on_element(self, element: StreamElement, port: int) -> None:
        self.meter.charge(1, "project")
        self._stage(element.with_payload(as_payload(self.mapping(element.payload))))

    def process_batch(self, batch: Batch, port: int = 0) -> None:
        """Map a whole run with one comprehension and one meter charge
        (``len(batch)`` units — exactly what the element loop charges)."""
        self._begin_run(batch, port)
        elements = batch.elements
        self.meter.charge(len(elements), "project")
        mapping = self.mapping
        mapped = [
            e.with_payload(as_payload(mapping(e.payload))) for e in elements
        ]
        self._emit_batch(batch.with_elements(mapped))
        self._end_run(batch, port)


class ProjectFields(Project):
    """Project onto a fixed sequence of payload positions."""

    def __init__(self, indices: Sequence[int], name: str = "") -> None:
        index_tuple = tuple(indices)

        def pick(payload: Payload) -> Payload:
            return tuple(payload[i] for i in index_tuple)

        super().__init__(pick, name=name or f"project{index_tuple}")
        self.indices = index_tuple
