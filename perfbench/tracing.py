"""Spans around calls into blockadesim's public functions, recorded from the
benchmark's own code.

The tracer patches each traced name where its caller looks it up (a name
imported into ``blockadesim.cli``, a classmethod on ``DriveParams``, a
module attribute such as ``blockadesim.qcore.matrix_exponential``) and puts
every original back on exit.  Spans stay in memory until the run writes
them out.  The run is single-threaded with no queue, so a span's duration is
busy time; there is no wait time to record.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "schedule", "model", "qcore", "evolve", "ideal", "budget")

# Names the CLI and the benchmark's workloads import from blockadesim and
# call directly; each is patched in every such caller module.
_IMPORTED_NAMES = {
    "deutsch_schedule": "schedule.build",
    "toffoli_schedule": "schedule.build",
    "cnot_schedule": "schedule.build",
    "evolve": "evolve.evolve",
    "gate_fidelity": "ideal.gate_fidelity",
    "sweep": "budget.sweep",
    "error_budget": "budget.error_budget",
}


def _exponential_name(args, kwargs) -> str:
    hermitian = kwargs.get("hermitian")
    if hermitian is None:
        hermitian = importlib.import_module("blockadesim.qcore").is_hermitian(args[0])
    return "qcore.matrix_exponential." + ("eigh" if hermitian else "expm")


def targets(callers) -> list[tuple[object, str, object]]:
    """(owner, attribute, span name or namer) for every traced call site.

    ``callers`` are the benchmark's own modules that import blockadesim
    functions by name.
    """
    # ``blockadesim.evolve`` is rebound to the function by the package
    # __init__, so the modules are looked up by name, not by attribute.
    cli = importlib.import_module("blockadesim.cli")
    schedule = importlib.import_module("blockadesim.schedule")
    found = [
        (cli, "main", "cli.main"),
        (schedule.DriveParams, "from_theta", "schedule.drive"),
        (schedule.DriveParams, "from_ratio", "schedule.drive"),
        (importlib.import_module("blockadesim.evolve"), "segment_hamiltonian",
         "model.segment_hamiltonian"),
        (importlib.import_module("blockadesim.qcore"), "matrix_exponential", _exponential_name),
    ]
    for module in (cli, *callers):
        for attr, name in _IMPORTED_NAMES.items():
            if attr not in vars(module):
                raise KeyError(f"{module.__name__} does not import {attr}")
            found.append((module, attr, name))
    return found


class Tracer:
    """Context manager that installs the patches and records spans.

    Each span is ``(op, id, parent, name, start, end, failed)``; spans opened
    inside :meth:`op` share that operation's id, and ``parent`` is the id of
    the innermost open span when the call began.
    """

    def __init__(self, callers):
        self._targets = targets(callers)
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._op = None
        self.spans: list[tuple] = []

    def __enter__(self):
        try:
            for owner, attr, namer in self._targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, namer))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, namer):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, namer))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            with self._span(name):
                return original(*args, **kwargs)

        return traced

    def op(self, op_id):
        """Root span of one operation; nested spans carry ``op_id``."""
        return _Span(self, "op", op_id)

    def _span(self, name):
        return _Span(self, name, self._op)


class _Span:
    __slots__ = ("tracer", "name", "op", "sid", "parent", "start", "outer_op")

    def __init__(self, tracer, name, op):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        t = self.tracer
        self.outer_op, t._op = t._op, self.op
        self.parent = t._stack[-1] if t._stack else None
        self.sid = len(t.spans)
        t.spans.append(None)  # reserve the id; filled in on exit
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        t._op = self.outer_op
        t.spans[self.sid] = (
            self.op, self.sid, self.parent, self.name, self.start, end, exc_type is not None
        )
        return False


def summarize(spans) -> dict:
    """Per span name: calls, total and self time in ms, and failures.

    Self time is a span's duration minus the durations of its direct
    children; the root ``op`` spans' self time is the benchmark's own glue
    plus any unpatched work.
    """
    child_time = [0.0] * len(spans)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (_, sid, _, name, start, end, failed) in spans:
        entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["total_ms"] += 1e3 * (end - start)
        entry["self_ms"] += 1e3 * (end - start - child_time[sid])
        entry["failed"] += int(failed)
    return out


def layer_self_ms(summary: dict) -> dict[str, float]:
    """Self time per layer, summed over that layer's span names."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += entry["self_ms"]
    return totals


def span_records(spans) -> list[dict]:
    keys = ("op", "id", "parent", "name", "start", "end", "failed")
    return [dict(zip(keys, span)) for span in spans]
