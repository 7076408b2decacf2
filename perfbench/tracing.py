"""Span tracing of sirlink from outside the package.

`Tracer` rebinds the public functions of each layer (cli, channel, ber,
montecarlo) to wrappers that record a span - name, start, end, parent span,
op id - or, for the per-evaluation law functions, only a call count.  Every
binding of a function in every loaded sirlink module is replaced, so calls
through `from .x import f` names are seen too.  Spans stay in memory and are
written out when the run ends.  Nothing under src/ is modified.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _add(counter, key, amount):
    counter[key] += amount


# (module, function, span name, hook run on the result to record a count)
SPANNED = (
    ("sirlink.cli", "main", "cli.main", None),
    ("sirlink.cli", "run_sweep", "cli.run_sweep",
     lambda c, rows: _add(c, "cli.sweep_points", len(rows))),
    ("sirlink.cli", "validate", "cli.validate",
     lambda c, rows: _add(c, "cli.validate_points", len(rows))),
    ("sirlink.cli", "rows_to_csv", "cli.csv", None),
    ("sirlink.channel", "sir_distribution", "channel.sir_distribution", None),
    ("sirlink.ber", "ber", "ber.ber", None),
    ("sirlink.ber", "ber_direct", "ber.direct",
     lambda c, res: _add(c, "ber.direct_evals", res.evaluations)),
    ("sirlink.ber", "ber_gl", "ber.gl", None),
    ("sirlink.montecarlo", "estimate_ber", "montecarlo.estimate", None),
    ("sirlink.montecarlo", "sample_sir", "montecarlo.sample",
     lambda c, draws: _add(c, "montecarlo.draws", getattr(draws, "size", 1))),
    ("sirlink.montecarlo", "ks_statistic", "montecarlo.ks", None),
)
# Called once per quadrature node; a span each would distort what it measures.
COUNTED = (
    ("sirlink.channel", "sir_pdf", "channel.sir_pdf"),
    ("sirlink.channel", "sir_cdf", "channel.sir_cdf"),
)


class Tracer:
    """Collects spans [name, start_ns, end_ns, parent index, op id] and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sirlink" or name.startswith("sirlink."))]
        targets = [(mod, attr, self._span(name, getattr(sys.modules[mod], attr), hook))
                   for mod, attr, name, hook in SPANNED if hasattr(sys.modules.get(mod), attr)]
        targets += [(mod, attr, self._count(name, getattr(sys.modules[mod], attr)))
                    for mod, attr, name in COUNTED if hasattr(sys.modules.get(mod), attr)]
        for mod, attr, wrapper in targets:
            original = getattr(sys.modules[mod], attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Each span's duration minus the time its direct children cover (ns)."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def layer_metrics(spans, counts, points: int) -> dict:
    """Per-layer figures from one traced run; `points` is grid points evaluated.

    A layer the workload never calls reports 0.
    """
    total = defaultdict(int)
    own = defaultdict(int)
    calls = Counter()
    for (name, start, end, _, _), mine in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += mine
        calls[name] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_ms(name):
        return ratio(total[name], calls[name]) / 1e6

    return {
        "ber.direct_ms": (mean_ms("ber.direct"), "ms"),
        "ber.direct_evals": (ratio(counts["ber.direct_evals"], calls["ber.direct"]), "count"),
        "ber.gl_ms": (mean_ms("ber.gl"), "ms"),
        "ber.self_ms": (ratio(own["ber.ber"], calls["ber.ber"]) / 1e6, "ms"),
        "channel.sir_cdf_calls": (ratio(counts["channel.sir_cdf"], points), "count"),
        "channel.sir_pdf_calls": (ratio(counts["channel.sir_pdf"], points), "count"),
        "montecarlo.estimate_ms": (mean_ms("montecarlo.estimate"), "ms"),
        "montecarlo.sample_ms_per_msample": (
            ratio(total["montecarlo.sample"] / 1e6, counts["montecarlo.draws"] / 1e6), "ms"),
        "montecarlo.ks_ms": (mean_ms("montecarlo.ks"), "ms"),
        "montecarlo.draws_per_point": (
            ratio(counts["montecarlo.draws"], counts["cli.validate_points"]), "count"),
        "cli.parse_ms": (ratio(own["cli.main"], calls["cli.main"]) / 1e6, "ms"),
        "cli.csv_ms": (mean_ms("cli.csv"), "ms"),
        "cli.sweep_self_ms": (ratio(own["cli.run_sweep"], counts["cli.sweep_points"]) / 1e6, "ms"),
        "cli.validate_self_ms": (
            ratio(own["cli.validate"], counts["cli.validate_points"]) / 1e6, "ms"),
    }
