"""Spans around the calls into each qlab layer, recorded from outside qlab.

The benchmark opens a span around each operation it issues.  Inside an
operation, the public functions that mark a layer boundary are wrapped in
every ``qlab`` module that binds them, for the traced rounds only; nothing
inside ``src/`` is changed.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# public name -> (span name, counts taken from (args, kwargs, result))
BOUNDARIES = {
    "parse_ic": ("engine.parse_ic", lambda a, k, res: {}),
    "evaluate": ("engine.evaluate", lambda a, k, res: {
        "terms": len(res.terms),
        "asked": a[1] if len(a) > 1 else k["max_terms"],
    }),
    "predict_sequence": ("predictor.predict", lambda a, k, res: {"terms": len(res.terms)}),
    "abc_profile": ("predictor.descent", lambda a, k, res: {"depth_sum": len(res.c)}),
    "rst_compute": ("rst.compute", lambda a, k, res: {"rows": res.n + 1}),
}

# Operation-level spans: their self time, and the counts recorded on them,
# belong to the layer named here.
OP_LAYER = {"cli.main": "cli.emit", "predictor.verify": "predictor.compare"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        self.counts[name]["calls"] += 1
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[name].update(count(args, kwargs, res))
            return res

        return traced

    def install(self, qlab) -> None:
        """Wrap each boundary function wherever a public qlab module binds it."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "qlab" or (name.startswith("qlab.") and not name.split(".")[-1].startswith("_"))
        ]
        for attr, (span, count) in BOUNDARIES.items():
            original = getattr(qlab, attr)
            wrapper = self._wrap(original, span, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_seconds(self, first: int = 0) -> dict[str, float]:
        """Self time per layer over spans[first:]: duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[OP_LAYER.get(name, name)] += end - start - child[i]
        return dict(out)

    def layer_counts(self) -> Counter:
        """Counts keyed "<layer>.<count>", e.g. "engine.evaluate.terms"."""
        return Counter({f"{OP_LAYER.get(span, span)}.{key}": value
                        for span, c in self.counts.items() for key, value in c.items()})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
