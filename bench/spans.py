"""Spans around bellgeo's public functions, installed from outside the program.

``Tracer.install`` replaces every public function of every bellgeo module,
and the public methods of the classes those modules define, by a wrapper
that records a span.  A function is replaced under its name in every module
that binds it, since the modules import each other's functions by name.
Spans (name, start, end, parent) are kept in memory and written out at the
end; self time and inclusive time are summed as the spans close.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter_ns

MODULES = ("behavior", "realization", "criteria", "geometry", "qbell", "selftest", "jsonio", "cli")
#: Spans kept for the span file; aggregates cover every span regardless.
SPAN_CAP = 400_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.calls: list[int] = []
        self.open: list[int] = []  # nesting depth per name, for inclusive time
        self.stack: list[list[int]] = []  # [name id, start, child ns, span id]
        self.spans = array("q")  # span id, name id, start, end, parent span id
        self.span_count = 0
        self.solutions = 0

    def _id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            for acc in (self.self_ns, self.incl_ns, self.calls, self.open):
                acc.append(0)
        return self.index[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        stack, tracer = self.stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.span_count
            tracer.span_count += 1
            parent = stack[-1][3] if stack else -1
            tracer.open[nid] += 1
            frame = [nid, perf_counter_ns(), 0, span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[1]
                tracer.self_ns[nid] += dur - frame[2]
                tracer.open[nid] -= 1
                if tracer.open[nid] == 0:
                    tracer.incl_ns[nid] += dur
                tracer.calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
                if span < SPAN_CAP:
                    tracer.spans.extend((span, nid, frame[1], end, parent))

        return traced

    def install(self, package):
        """Wrap bellgeo's public functions and methods, and qbell's least_squares."""
        mods = {m: getattr(package, m) for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        loads = mods["jsonio"].loads
        replace[id(loads)] = (loads, self.wrap("jsonio.loads", loads))
        ls = mods["qbell"].least_squares
        replace[id(ls)] = (ls, self.wrap("scipy.least_squares", ls))
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self._count_solutions(mods["qbell"])

    def _wrap_class(self, short: str, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr == "__post_init__":
                # construction with validation; CBehavior and DBehavior share a name
                label = "behavior.validate" if short == "behavior" else name
                setattr(cls, attr, self.wrap(label, obj))
            elif attr.startswith("_"):
                continue
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def _count_solutions(self, qbell):
        inner = qbell.uniqueness_check

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.solutions += len(report.solutions)
            return report

        # extremal_criterion imports it from qbell at call time, so this binding
        # serves both callers
        qbell.uniqueness_check = counted

    # -- reading the aggregates -------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.index[name]] if name in self.index else 0

    def incl_ms(self, name: str) -> float:
        return self.incl_ns[self.index[name]] / 1e6 if name in self.index else 0.0

    def self_ms_by_module(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, ns in zip(self.names, self.self_ns):
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + ns / 1e6
        return out

    def write_spans(self, path):
        """One JSON object per line: span id, name, start/end ns, parent span id."""
        with open(path, "w", encoding="utf-8") as fh:
            s = self.spans
            for i in range(0, len(s), 5):
                span, nid, start, end, parent = s[i : i + 5]
                fh.write(
                    json.dumps(
                        {"span": span, "name": self.names[nid], "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )
