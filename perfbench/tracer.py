"""Per-layer tracing from outside the package.

`Tracer.install` rebinds every public function of every chooselab module
(except the command layer, `cli`) to a timing wrapper, in each chooselab
module namespace that holds it: `key_lemma.find_coloring` as well as
`multicolor.find_coloring`.  A wrapped call is one span.  Self time is a
span's duration minus the time of the spans nested in it.  Generator
functions get one span per `next()`.  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# public name -> metric prefix, where the issue names a layer differently
ALIASES = {"multicolor.enumerate_assignments_canonical": "multicolor.enumerate"}

# counts read off a call's result
RESULT_COUNTS = {
    "reduction.run_scheme": ("branches", lambda r: len(r.branches)),
    "reduction.run_scheme_all_splits": ("branches", lambda r: len(r.branches)),
    "discharging.sweep_4face": ("scenarios", lambda r: r[1] + r[2]),
}

NOT_TRACED = {"cli"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []       # [name, start, time in children, span id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0            # time inside outermost spans
        self.outside_s = 0.0              # operation time outside every span
        self.spans: list[tuple] = []      # kept while `recording` is set
        self.recording = False
        self.op = None                    # identifier shared by one operation's spans
        self._next_id = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the imported chooselab modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and
                   (name == "chooselab" or name.startswith("chooselab."))}
        wrappers = {}
        for name, mod in modules.items():
            short = name.rpartition(".")[2]
            if name == "chooselab" or short in NOT_TRACED:
                continue
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != name):
                    continue
                key = f"{short}.{attr}"
                wrappers[fn] = self._wrap(ALIASES.get(key, key), fn)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave
        counter = RESULT_COUNTS.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        leave()
                        return
                    except BaseException:
                        leave()
                        raise
                    leave()
                    self.counts[name + ".vectors"] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result
        return traced

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _leave(self) -> None:
        end = time.perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        else:
            self.top_level_s += dur
            parent = None
        if self.recording:
            self.spans.append((sid, parent, name, start, end, self.op))

    def reset(self) -> None:
        """Forget the totals (after the warm-up session)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_level_s = 0.0
        self.outside_s = 0.0

    def value(self, metric: str) -> float:
        """A per-layer total: `<layer>.s` self seconds, `.calls`, or a count."""
        prefix, _, kind = metric.rpartition(".")
        if kind == "s":
            return self.self_s.get(prefix, 0.0)
        if kind == "calls":
            return self.calls.get(prefix, 0)
        return self.counts.get(metric, 0)
