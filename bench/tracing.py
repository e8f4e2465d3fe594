"""Span recording for the traced benchmark pass.

The program itself has no trace hooks yet, so the traced pass records spans
from the outside: it replaces each public function of the ``permorder``
modules, at every module binding that names it, with a wrapper that opens a
span around the call.  Spans are kept in memory as
``[name, parent_index, t_start, t_end, attrs]`` lists and are written out
once the pass has finished.  ``uninstall`` puts every original binding
back, so code run after the timed ops (the oracles) is not traced.
"""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterable

# Modules whose public functions are wrapped.  A function is named after the
# module that defines it, whichever binding it is reached through.
MODULES = ("numtheory", "exactdist", "asymptotics", "sampler", "store", "cli")

Hook = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Collects nested spans; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, pre: Hook | None = None,
             post: Hook | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span.

        ``pre`` runs before the clock starts and ``post`` after it stops;
        each returns attributes merged into the span, so work counters do
        not inflate the span's own duration.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = pre(args, kwargs, None) if pre else None
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if post:
                span[4] = {**(span[4] or {}), **post(args, kwargs, result)}
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              pre: Hook | None = None, post: Hook | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, pre, post))

    def install(self, modules: dict[str, ModuleType],
                hooks: dict[str, tuple[Hook | None, Hook | None]]) -> None:
        """Wrap every public function of ``modules`` at each binding.

        ``modules`` maps short names (``"exactdist"``) to the imported
        modules.  A function defined in module A and imported by name into
        module B, or held in a module-level dict of B, is wrapped there
        too, under A's name.
        """
        home_of = {mod.__name__: short for short, mod in modules.items()}
        wrappers: dict[int, Callable] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = home_of.get(getattr(obj, "__module__", ""))
                if home is None:
                    continue
                if id(obj) not in wrappers:
                    name = f"{home}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, *hooks.get(name, (None, None)))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for mod in modules.values():
            for table in vars(mod).values():
                if type(table) is dict:
                    for key, obj in table.items():
                        if id(obj) in wrappers:
                            self._patched.append((table, key, obj))
                            table[key] = wrappers[id(obj)]
        store_cls = modules["store"].ResultStore
        self.patch(store_cls, "__init__", "store.ResultStore")
        for method in ("append", "load", "checkpoint", "resume"):
            name = f"store.{method}"
            self.patch(store_cls, method, name, *hooks.get(name, (None, None)))
        lattice = modules["numtheory"].DivisorLattice
        self.patch(lattice, "__init__", "numtheory.DivisorLattice")
        self.patch(lattice, "_build_lcm_index", "numtheory.DivisorLattice")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children are nested in
    their parent's interval and do not overlap one another.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def write_spans(spans: Iterable[list], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i, (name, parent, t0, t1, attrs) in enumerate(spans):
            fh.write(json.dumps([i, name, parent, t0, t1, attrs]) + "\n")


def read_spans(path: Path) -> list[list]:
    spans = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            _, name, parent, t0, t1, attrs = json.loads(line)
            spans.append([name, parent, t0, t1, attrs])
    return spans


# ---------------------------------------------------------------------------
# work counters attached to spans (computed from arguments and results)


def _arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    return args[index] if len(args) > index else kwargs[key]


def _n_attr(args, kwargs, result) -> dict:
    return {"n": _arg(args, kwargs, 0, "n")}


def _lattice_attrs(args, kwargs, result) -> dict:
    n = _arg(args, kwargs, 0, "n")
    f = _arg(args, kwargs, 1, "f")
    return {"n": n, "tau": math.prod(e + 1 for _, e in f.factors)}


def _estimate_attrs(args, kwargs, result) -> dict:
    return {"trials": result.trials, "hits": result.hits}


def _store_bytes(args, kwargs, result) -> dict:
    root = Path(args[0].root)
    return {"log_bytes": sum(p.stat().st_size for p in root.glob("*.jsonl"))}


HOOKS: dict[str, tuple[Hook | None, Hook | None]] = {
    "exactdist.mode": (None, _n_attr),
    "exactdist.full_pmf": (None, _n_attr),
    "exactdist.order_counts_on_lattice": (None, _lattice_attrs),
    "sampler.estimate_p": (None, _estimate_attrs),
    "store.append": (_store_bytes, None),
}
