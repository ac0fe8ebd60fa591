"""Request spans: hierarchical observability in the simulated-cycle timebase.

A serving run that misbehaves — a p99 spike, a shed storm, a streak of
replay-cache misses — cannot be explained by end-of-run aggregates.  This
module records *why* as a span tree per request, in the same simulated
cycle domain the dispatcher runs in::

    request 7                      [arrival .......... completion]
      attempt 1  (failed, kill)    [ready]
      attempt 2  (retry, failover) [ready ............ completion]
        queue_wait                 [ready ... start]
        dispatch  (worker 1)       [start ........... completion]
          launch gemm (replay=hit) [start .. start+cycles]

A serving run keeps one record: its :class:`ServingEvent` log, which the
dispatch core and the worker supervisor append to.  :func:`build_spans`
rebuilds every request's span tree from that log and the per-request
results *after* the run (Dapper-style, Sigelman et al., 2010), so
observing a run never changes which code the run executes: outputs,
cycle counts and stats are bit-identical with observation off.

Span categories (:data:`CATEGORIES`):

* ``request`` — arrival to terminal outcome (ok/timed_out/corrupted/
  failed/shed);
* ``attempt`` — one dispatch try; failed attempts are zero-duration at
  their dispatch instant (injected faults fire before execution) and
  carry ``fault_class``/``injected``; retry attempts carry
  ``cause="retry"`` and ``failover=True`` when routed away from the
  worker that just failed;
* ``queue_wait`` — admission-ready to service start;
* ``dispatch`` — service on the chosen worker (``worker`` attribute);
* ``launch`` — one kernel launch inside the service window, tagged with
  its replay-cache outcome (``replay`` = ``hit``/``miss``/``bypassed``/
  ``off``).

Worker health transitions (quarantine/probation/reinstatement) are
``health`` events in the same log; the trace export draws them as
instants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span categories in parent-before-child order.
CATEGORIES = ("request", "attempt", "queue_wait", "dispatch", "launch")

#: Event-log source of each request event kind; every other kind is a
#: worker ``health`` transition.
SOURCES = {
    "arrival": "dispatch", "dispatch": "dispatch", "completion": "dispatch",
    "fail": "fault", "retry": "fault", "shed": "fault",
}


@dataclass(frozen=True)
class ServingEvent:
    """One entry in a serving run's event log.

    ``cycle`` is a simulated cycle on the online cycle clock and the
    dispatch sequence number offline.  Request events carry
    ``request_id``; health events (quarantined/probation/
    forced_probation/reinstated) carry only the ``worker``.  A ``fail``
    carries the failed attempt's ``fault_class`` and ``injected`` flag.
    """

    cycle: int
    kind: str
    request_id: Optional[int] = None
    worker: Optional[int] = None
    fault_class: Optional[str] = None
    injected: bool = False

    @property
    def source(self) -> str:
        """``dispatch``, ``fault`` or ``health``."""
        return SOURCES.get(self.kind, "health")


@dataclass
class Span:
    """One node of a request's span tree (cycles are simulated cycles)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_cycle: int
    end_cycle: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_cycles(self) -> int:
        """Span duration; 0 while open (and for instant-like spans)."""
        if self.end_cycle is None:
            return 0
        return self.end_cycle - self.start_cycle

    def as_dict(self) -> Dict[str, Any]:
        """JSON-clean rendering (attrs carry only scalars by contract)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Collects the spans of one serving run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open = 0

    def begin(
        self,
        name: str,
        category: str,
        cycle: int,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id (stable: index into :attr:`spans`)."""
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown span category {category!r}; expected one of {CATEGORIES}"
            )
        span = Span(
            span_id=len(self.spans),
            parent_id=parent,
            name=name,
            category=category,
            start_cycle=int(cycle),
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        self.spans.append(span)
        self._open += 1
        return span.span_id

    def end(self, span_id: int, cycle: int, **attrs: Any) -> None:
        span = self.spans[span_id]
        if span.end_cycle is not None:
            raise ValueError(f"span {span_id} ({span.name!r}) ended twice")
        if cycle < span.start_cycle:
            raise ValueError(
                f"span {span_id} ({span.name!r}) ends at cycle {cycle} before "
                f"its start {span.start_cycle}"
            )
        span.end_cycle = int(cycle)
        for key, value in attrs.items():
            if value is not None:
                span.attrs[key] = value
        self._open -= 1

    # -- queries (tests and the text renderer) -----------------------------

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (0 after a clean run)."""
        return self._open

    def children(self, span_id: Optional[int]) -> List[Span]:
        """Direct children of ``span_id`` in creation order."""
        return [s for s in self.spans if s.parent_id == span_id]

    def roots(self) -> List[Span]:
        return self.children(None)

    def tree(self, span_id: int) -> List[Span]:
        """The subtree rooted at ``span_id`` in depth-first order."""
        root = self.spans[span_id]
        out = [root]
        for child in self.children(span_id):
            out.extend(self.tree(child.span_id))
        return out

    def find(
        self, category: Optional[str] = None, **attrs: Any
    ) -> List[Span]:
        """Spans matching a category and/or exact attribute values."""
        selected = self.spans
        if category is not None:
            selected = [s for s in selected if s.category == category]
        for key, value in attrs.items():
            selected = [s for s in selected if s.attrs.get(key) == value]
        return selected


def launch_windows(result) -> Iterator[Tuple[Dict[str, Any], int, int]]:
    """Each launch of a served result with its absolute cycle window.

    Launches lie back-to-back from the service start: the worker
    executes them serially.
    """
    cursor = result.start_cycle
    for launch in result.launches:
        end = cursor + launch["cycles"]
        yield launch, cursor, end
        cursor = end


def build_spans(results: Sequence, events: Sequence[ServingEvent]) -> SpanRecorder:
    """Rebuild every request's span tree from an online run's event log.

    Walks ``events`` in emission order: ``arrival`` opens the request
    span; ``fail`` is a zero-duration failed attempt (a fault fires at
    its dispatch instant); ``dispatch`` is the successful attempt with
    its queue wait, service span and back-to-back launches; ``shed``, or
    the ``fail`` of a ``failed`` result's last attempt, closes the
    request span.  ``results`` supply what the log does not carry: the
    request kind, the service window, launches and the final status.
    """
    recorder = SpanRecorder()
    by_id = {result.request_id: result for result in results}
    request_span: Dict[int, int] = {}
    attempts: Dict[int, int] = {}
    last_failed: Dict[int, int] = {}
    for event in events:
        kind, rid, cycle = event.kind, event.request_id, event.cycle
        if kind == "arrival":
            request_span[rid] = recorder.begin(
                f"request {rid}", "request", cycle, request=rid, kind=by_id[rid].kind,
            )
        elif kind == "shed":
            recorder.end(request_span[rid], cycle, status="shed",
                         cause=by_id[rid].fault_class)
        elif kind in ("fail", "dispatch"):
            result = by_id[rid]
            attempt = attempts[rid] = attempts.get(rid, 0) + 1
            worker = event.worker
            span = recorder.begin(
                f"attempt {attempt}", "attempt", cycle, parent=request_span[rid],
                request=rid, attempt=attempt, worker=worker,
                cause="retry" if attempt > 1 else None,
                failover=(attempt > 1 and worker != last_failed.get(rid)) or None,
            )
            if kind == "fail":
                recorder.end(span, cycle, status="failed",
                             fault_class=event.fault_class,
                             injected=event.injected or None)
                last_failed[rid] = worker
                if result.status == "failed" and attempt == result.attempts:
                    recorder.end(request_span[rid], cycle, status="failed",
                                 fault_class=event.fault_class)
                continue
            start, completion = result.start_cycle, result.completion_cycle
            wait = recorder.begin("queue_wait", "queue_wait", cycle,
                                  parent=span, request=rid)
            recorder.end(wait, start)
            service = recorder.begin(f"serve {rid}", "dispatch", start,
                                     parent=span, request=rid, worker=worker)
            for launch, launch_start, launch_end in launch_windows(result):
                launch_span = recorder.begin(
                    launch["name"], "launch", launch_start, parent=service,
                    request=rid, worker=worker,
                    kernel_id=launch["kernel_id"], replay=launch["replay"],
                )
                recorder.end(launch_span, launch_end)
            recorder.end(service, completion)
            recorder.end(span, completion, status=result.status)
            recorder.end(request_span[rid], completion,
                         status=result.status, worker=worker)
    return recorder
