"""Run one egd CLI command in-process with each layer's public calls traced.

Usage: python3 perfbench/trace_cmd.py SRC_DIR ARG...

The tracer wraps, from outside the package, the names ``egd.engine`` and
``egd.cli`` import from the layers below (``build_group``, ``get_context``,
``bruhat_leq``, ``quotient_stratum``, ``quotient_dimension``,
``decompose``, ``classify_md_pairs``, ``effective_divisibility``,
``md_pairs``) plus ``WeylGroupContext.multiply``, then calls
``egd.cli.main(ARG...)``.  Calls are aggregated per (span, parent span);
no per-call record is kept.  It prints one JSON object: the exit code, the
command's stdout and the aggregates.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import defaultdict

ROOT_SPAN = "root"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # (span, parent) -> calls
        self.secs = defaultdict(float)  # (span, parent) -> inclusive seconds
        self.self_secs = defaultdict(float)  # span -> seconds minus traced children
        self.stack = [[ROOT_SPAN, 0.0]]  # [span, seconds spent in traced children]
        self.dim = 0  # dimension of the quotient the engine last asked for
        self.degrees = defaultdict(lambda: [0, 0.0, 0])  # degree -> [calls, s, violations]
        self.pairs = set()
        self.swept_degrees = set()
        self.first_violation = None  # degree of the first violating comparison
        self.strata = {}  # (spec, J, l) -> elements returned
        self.specs = []

    def _close(self, name, parent, frame, dt):
        key = (name, parent[0])
        self.calls[key] += 1
        self.secs[key] += dt
        self.self_secs[name] += dt - frame[1]
        parent[1] += dt

    def span(self, name, fn):
        stack, clock, close = self.stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(name, parent, frame, dt)

        return traced

    def leaf(self, name, fn):
        """Like ``span`` for a function that calls nothing traced; cheaper."""
        stack, clock, calls, secs, self_secs = (
            self.stack, time.perf_counter, self.calls, self.secs, self.self_secs)

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            parent = stack[-1]
            key = (name, parent[0])
            calls[key] += 1
            secs[key] += dt
            self_secs[name] += dt
            parent[1] += dt
            return out

        return traced

    def bruhat_leq(self, fn):
        """Span for ``bruhat_leq`` that also keeps per-degree detail.

        The degree of a comparison is l(v) + dim - l(u), dim being the
        quotient dimension the engine looked up last.
        """
        clock, degrees, pairs = time.perf_counter, self.degrees, self.pairs

        def leq(ctx, v, u):
            t0 = clock()
            answer = fn(ctx, v, u)
            degree = v.length + self.dim - u.length
            row = degrees[degree]
            row[0] += 1
            row[1] += clock() - t0
            pairs.add((v, u))
            if not answer:
                row[2] += 1
                if self.first_violation is None:
                    self.first_violation = degree
            elif self.first_violation is None:
                self.swept_degrees.add(degree)
            return answer

        return self.span("bruhat.bruhat_leq", leq)

    def install(self):
        import egd.cli as cli
        import egd.engine as engine
        from egd.weyl import WeylGroupContext

        def quotient_dimension(ctx, jset, _fn=engine.quotient_dimension):
            self.dim = _fn(ctx, jset)
            return self.dim

        def quotient_stratum(ctx, jset, l, _fn=engine.quotient_stratum):
            out = _fn(ctx, jset, l)
            self.strata[(ctx.spec, frozenset(jset), l)] = len(out)
            return out

        def get_context(spec, _fn=engine.get_context):
            if spec not in self.specs:
                self.specs.append(spec)
            return _fn(spec)

        wrapped = {
            "build_group": self.span("weyl.build_group", engine.build_group),
            "get_context": self.span("engine.get_context", get_context),
            "bruhat_leq": self.bruhat_leq(engine.bruhat_leq),
            "quotient_stratum": self.span("bruhat.quotient_stratum", quotient_stratum),
            "quotient_dimension": self.span("bruhat.quotient_dimension", quotient_dimension),
            "classify_md_pairs": self.span("engine.classify_md_pairs", engine.classify_md_pairs),
            "effective_divisibility": self.span(
                "engine.effective_divisibility", engine.effective_divisibility),
            "md_pairs": self.span("engine.md_pairs", engine.md_pairs),
            "decompose": self.span("parabolic.decompose", engine.decompose),
        }
        for module in (engine, cli):
            for name, fn in wrapped.items():
                if hasattr(module, name):
                    setattr(module, name, fn)
        WeylGroupContext.multiply = self.leaf("weyl.multiply", WeylGroupContext.multiply)

    def summary(self) -> dict:
        import egd

        contexts = [egd.get_context(spec) for spec in self.specs]
        return {
            "spans": [[n, p, c, self.secs[(n, p)]] for (n, p), c in self.calls.items()],
            "self_s": dict(self.self_secs),
            "degrees": {str(d): row for d, row in sorted(self.degrees.items())},
            "distinct_pairs": len(self.pairs),
            "swept_degrees": len(self.swept_degrees - {self.first_violation}),
            "memo_entries": sum(len(ctx.bruhat_cache) for ctx in contexts),
            "strata_elements": sum(self.strata.values()),
            "positive_roots": max((ctx.num_positive_roots for ctx in contexts), default=0),
        }


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    argv = sys.argv[2:]
    import egd.cli

    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tracer.span("cli.main", egd.cli.main)(argv)
    record = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    record.update(tracer.summary())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
