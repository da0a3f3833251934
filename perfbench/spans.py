"""Span tracing of gptpurity from outside the package.

``Tracer.install`` rebinds every module-level binding of a public
gptpurity function, including the ``from .x import y`` copies, to a
wrapper that records a span named after the defining module.  A call is
thus attributed to its layer whichever module makes it.  Spans are kept in
memory; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

#: extra data recorded on a span from the call's arguments and result
ANNOTATE = {
    "simplex.phase1": lambda args, res: {"cols": args[0].shape[1]},
    "mixedness.birkhoff_rare_synthesis": lambda args, res: {"n": len(args[0]),
                                                            "terms": len(res.entries)},
    "monotones.enumerate_pure_measurements": lambda args, res: {"measurements": len(res[0]),
                                                                "incomplete": not res[1]},
    "boxworld.check_local_exchangeability": lambda args, res: {"found": res is not None},
    "quantum.eof.minimize": lambda args, res: {"nfev": res.nfev, "nit": res.nit},
}


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    op: int | None
    end: float = 0.0
    error: str | None = None
    extra: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans (calls nest, as the
        process is single-threaded, so the children never overlap)."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: int | None = None
        self.tags: dict[int, dict] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, self.stack[-1] if self.stack else None, self.op)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                self._close(span)
                raise
            self._close(span)
            if annotate is not None:
                span.extra = annotate(args, result)
            return result

        return traced

    def run_op(self, op_id: int, kind: str, fn):
        """Run one benchmark operation as a root span ``op:<kind>``."""
        self.op = op_id
        span = self._open("op:" + kind)
        try:
            return fn()
        finally:
            self._close(span)
            self.op = None

    # -- installing --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions of every submodule of ``package``."""
        modules = [package] + [m for m in vars(package).values()
                               if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                if id(value) not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrapped[id(value)] = self.wrap(f"{layer}.{value.__name__}", value)
                self._rebind(module, attr, wrapped[id(value)])
        # the EoF polish is scipy's minimize, called through the quantum module
        self._rebind(package.quantum, "minimize",
                     self.wrap("quantum.eof.minimize", package.quantum.minimize))
        self._rebind(package.boxworld.BoxState, "validate",
                     self.wrap("boxworld.validate", package.boxworld.BoxState.validate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
