"""Spans around calls into rlat's public functions, recorded from outside.

`Tracer.install` replaces every binding of each public function in every
loaded rlat module: the defining module, each module that imported the name
(`validate` is imported into gluing, decompose, congruence, search and cli),
module-level dicts that hold the function (the cli's property table) and the
package namespace. Modules are reached through `sys.modules`, because the
package rebinds `rlat.decompose` and `rlat.partition` to functions.
`uninstall` puts the originals back.
"""

import functools
import inspect
import json
import sys
import time

_NAME, _PARENT, _START, _END, _CHILD, _OUTER, _FAILED = range(7)


def public_functions():
    """rlat's exported functions plus the cli entry point, keyed by object."""
    pkg = sys.modules["rlat"]
    found = [getattr(pkg, name) for name in pkg.__all__]
    found.append(sys.modules["rlat.cli"].run)
    return {f: "%s.%s" % (f.__module__.split(".", 1)[1], f.__name__)
            for f in found if inspect.isfunction(f)}


class Tracer:
    def __init__(self):
        # a span: [name, parent index, start, end, time of child spans,
        #          outermost span of its name, returned a failing report]
        self.spans = []
        self._stack = []
        self._active = {}
        self._undo = []

    def install(self):
        wrappers = {id(f): self._wrap(name, f)
                    for f, name in public_functions().items()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rlat" or key.startswith("rlat.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((vars(module), attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self):
        while self._undo:
            table, key, original = self._undo.pop()
            table[key] = original

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            active[name] = depth + 1
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0,
                    depth == 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[_FAILED] = getattr(result, "ok", True) is False
                return result
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
                active[name] = depth
                if span[_PARENT] >= 0:
                    spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]

        return traced

    def totals(self):
        """Per function: calls, s (outermost spans), self_s (minus child
        spans) and fail_s (outermost spans that returned a failing report)."""
        out = {}
        for span in self.spans:
            t = out.setdefault(span[_NAME], {"calls": 0, "s": 0.0,
                                             "self_s": 0.0, "fail_s": 0.0})
            dur = span[_END] - span[_START]
            t["calls"] += 1
            t["self_s"] += dur - span[_CHILD]
            if span[_OUTER]:
                t["s"] += dur
                if span[_FAILED]:
                    t["fail_s"] += dur
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s[_NAME], "parent": s[_PARENT],
                        "start": s[_START], "end": s[_END]}
                       for s in self.spans], fh)

