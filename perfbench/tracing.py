"""In-memory spans and counts for the traced benchmark run.

Spans are recorded by wrapping public functions and methods from outside the
package (module attributes for `ingest`/`physics`, instance attributes for
`nn` layers and optimizers), so the traced run executes exactly the code of
the untraced run. Nothing is written until the run ends.
"""

import json
import statistics
import time
from contextlib import ExitStack, contextmanager


class Tracer:
    """Spans as [name, start_s, end_s, parent_index, op] plus per-op counts.

    `op` identifies the benchmark operation a span belongs to; parent_index
    is -1 for a span opened while no other span was open.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = []  # (op, name, n)
        self.op = -1
        self._open = []

    def begin_op(self):
        self.op += 1

    @contextmanager
    def span(self, name):
        rec = [name, self.clock(), None, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self._open.pop()

    def count(self, name, n):
        self.counts.append((self.op, name, int(n)))

    def wrap(self, fn, name, counter=None):
        """`fn` inside a span; `counter(args, result)` yields (name, n) pairs,
        evaluated after the span closes so counting is not timed."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for count_name, n in counter(args, result):
                    self.count(count_name, n)
            return result

        return traced

    def write_jsonl(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for (name, start, end, parent, op), own in zip(self.spans, selfs):
                fh.write(json.dumps({"name": name, "op": op, "start_s": start,
                                     "end_s": end, "parent": parent,
                                     "self_s": own}) + "\n")
            for op, name, n in self.counts:
                fh.write(json.dumps({"count": name, "op": op, "n": n}) + "\n")


def self_times(spans):
    """Per span: its duration minus the part of it covered by child spans.

    Children are clipped to the parent interval and overlapping children are
    merged, so the result never double-counts and never goes negative.
    """
    children = [[] for _ in spans]
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def per_op_median_ms(spans, ops, metric_of):
    """{metric: median over `ops` of the summed self time in ms per op}.

    `metric_of(span_name)` maps a span to its metric name (or None to skip);
    an op without a span of some metric contributes 0 for it.
    """
    totals = {}
    for (name, _, _, _, op), own in zip(spans, self_times(spans)):
        metric = metric_of(name)
        if metric is not None and op in ops:
            per_op = totals.setdefault(metric, {})
            per_op[op] = per_op.get(op, 0.0) + own * 1e3
    return {metric: statistics.median(per_op.get(op, 0.0) for op in ops)
            for metric, per_op in totals.items()}


def count_totals(counts, ops):
    """{name: sum of counts recorded in `ops`}."""
    out = {}
    for op, name, n in counts:
        if op in ops:
            out[name] = out.get(name, 0) + n
    return out


@contextmanager
def patched(obj, attr, value):
    """Temporarily set obj.attr; restores (or removes) it on exit."""
    own = vars(obj)
    had, old = attr in own, own.get(attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        if had:
            setattr(obj, attr, old)
        else:
            delattr(obj, attr)


def wrap_all(tracer, targets):
    """ExitStack that wraps each (obj, attr, span_name, counter) target."""
    with ExitStack() as stack:
        for obj, attr, name, counter in targets:
            stack.enter_context(
                patched(obj, attr, tracer.wrap(getattr(obj, attr), name, counter)))
        return stack.pop_all()
