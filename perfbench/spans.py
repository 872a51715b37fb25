"""Outside-in tracing of lievol's layers, and the arithmetic on its spans.

The child process wraps the public functions below before it calls
`lievol.cli.main`, keeps one span per call in memory and writes them out
when it exits. The parent turns the spans of the traced requests into the
per-layer metrics. A span is ``[name, start_ns, end_ns, parent, extra]``
with ``parent`` the index of the enclosing span, or -1.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in every lievol module that binds them
TARGETS = (
    ("cli", "main"),
    ("volume", "cross_check"),
    ("volume", "phi_kp"),
    ("rootsys", "build_root_system"),
    ("rootsys", "rho_pairings_killing"),
    ("rootsys", "minimal_pairing"),
    ("vogel", "key_relation_residual"),
    ("quad", "integrate_phi"),
    ("quad", "integrate_semiinfinite"),
    ("special", "log_barnesG_integral"),
    ("special", "phi_unitary_closed_form"),
    ("special", "barnesG_integer_oracle"),
)

PACKAGE = "lievol"
QUAD = "quad.integrate_semiinfinite"
# spans whose extra is the Lie type they work on, for distinct_ratio
KEYED = ("rootsys.build_root_system", "rootsys.rho_pairings_killing")
# quadrature calls are split by the span that made them
QUAD_PARENTS = {"quad.integrate_phi": "phi", "special.log_barnesG_integral": "barnes"}


class Tracer:
    """Context manager that wraps TARGETS and restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        default_tol = importlib.import_module(f"{PACKAGE}.quad").Tolerance()
        prefix = PACKAGE + "."
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)
        ]
        for module, attr in TARGETS:
            original = getattr(importlib.import_module(prefix + module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(f"{module}.{attr}", original, default_tol)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn, default_tol):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name in KEYED:
                span[4] = str(getattr(args[0], "lie_type", args[0]))
            elif name == QUAD:
                tol = kwargs.get("tol", args[1] if len(args) > 1 else None) or default_tol
                target = max(tol.abs, tol.rel * abs(result.value))
                span[4] = [
                    result.evaluations,
                    result.tail_cutoff,
                    result.error_estimate / target,
                    bool(result.converged),
                ]
            return result

        return wrapper


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(requests: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the span lists of traced requests.

    Counts and self times are means per request; ratios are ratios of sums;
    err_over_tol is a median over calls and tail_cutoff_max a maximum.
    """
    n = max(len(requests), 1)
    calls, self_ns, distinct = Counter(), Counter(), Counter()
    quad = {"phi": [], "barnes": []}
    for spans in requests:
        selfs = self_times(spans)
        keys = defaultdict(set)
        for (name, _, _, parent, extra), own in zip(spans, selfs):
            calls[name] += 1
            self_ns[name] += own
            if name in KEYED:
                keys[name].add(extra)
            elif name == QUAD and parent >= 0:
                group = QUAD_PARENTS.get(spans[parent][0])
                if group:
                    quad[group].append((own, *extra))
        for name, seen in keys.items():
            distinct[name] += len(seen)

    def count(name):
        return calls[name] / n

    def seconds(name):
        return self_ns[name] / n / 1e9

    m = {}
    for name in KEYED:
        m[f"{name}.calls"] = count(name)
        m[f"{name}.self_s"] = seconds(name)
        m[f"{name}.distinct_ratio"] = distinct[name] / calls[name] if calls[name] else 0.0
    m["rootsys.minimal_pairing.calls"] = count("rootsys.minimal_pairing")
    m["rootsys.minimal_pairing.self_s"] = seconds("rootsys.minimal_pairing")
    for name in ("volume.cross_check", "volume.phi_kp", "vogel.key_relation_residual",
                 "quad.integrate_phi"):
        m[f"{name}.calls"] = count(name)
        m[f"{name}.self_s"] = seconds(name)
    for group, rows in quad.items():
        evals = sum(r[1] for r in rows)
        key = f"{QUAD}.{group}"
        m[f"{key}.calls"] = len(rows) / n
        m[f"{key}.self_s"] = sum(r[0] for r in rows) / n / 1e9
        m[f"{key}.evals"] = evals / n
        m[f"{key}.evals_per_call"] = evals / len(rows) if rows else 0.0
        m[f"{key}.tail_cutoff_max"] = max((r[2] for r in rows), default=0.0)
        m[f"{key}.err_over_tol"] = statistics.median(r[3] for r in rows) if rows else 0.0
        m[f"{key}.unconverged"] = sum(not r[4] for r in rows) / n
    m["special.log_barnesG_integral.calls"] = count("special.log_barnesG_integral")
    m["special.log_barnesG_integral.self_s"] = seconds("special.log_barnesG_integral")
    m["special.log_barnesG_integral.evals"] = m[f"{QUAD}.barnes.evals"]
    m["special.phi_unitary_closed_form.calls"] = count("special.phi_unitary_closed_form")
    m["special.phi_unitary_closed_form.self_s"] = seconds("special.phi_unitary_closed_form")
    m["special.barnesG_integer_oracle.calls"] = count("special.barnesG_integer_oracle")
    m["cli.self_s"] = seconds("cli.main")
    m["cli.main.total_s"] = sum(
        s[2] - s[1] for spans in requests for s in spans if s[0] == "cli.main"
    ) / n / 1e9
    return m
