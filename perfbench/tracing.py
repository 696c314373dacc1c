"""Spans around calls into each sternsums layer, recorded from outside.

The benchmark wraps the public functions named in LAYERS at runtime, in its
own process, by rebinding every module attribute that refers to them; the
package's files are not changed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# The functions whose calls are timed, by module.  ``cli.main`` is the root
# span of every query; ``cli.report_document`` is where results are rendered
# to decimal strings.
LAYERS = {
    "stern": ("stern_row", "power_sum_direct", "power_sum_sequence"),
    "forms": ("phi_matrix", "sym_quotient", "operator_matrix"),
    "linalg": (
        "minpoly",
        "charpoly",
        "kernel_basis",
        "rank",
        "is_squarefree",
        "eigen_multiplicity",
        "solve_linear",
        "RationalMatrix.mat_vec",
        "RationalMatrix.__matmul__",
    ),
    "spectra": (
        "verify_single",
        "eigenspace_dims",
        "odd_case_dims",
        "check_annihilation_identities",
        "check_diagonalizability",
    ),
    "recurrences": (
        "fit_recurrence",
        "min_recurrence",
        "min_affine_alt_recurrence",
        "annihilator_recurrence",
        "verify_recurrence",
        "mine_all_monomials",
    ),
    "cli": ("main", "parse_fspec", "report_document", "emit_json"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Records (id, parent id, query, name, start, end) for every traced call."""

    def __init__(self, package):
        self.spans = []
        self.query = None
        self._stack = [None]
        self._patches = self._plan(package)

    def _plan(self, package) -> list:
        """(owner, attribute, original, wrapper) for every binding to rebind."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        patches = []
        for mod, fns in LAYERS.items():
            for fn in fns:
                owner_name, _, attr = fn.rpartition(".")
                home = getattr(package, mod)
                if owner_name:
                    cls = getattr(home, owner_name)
                    original = cls.__dict__[attr]
                    patches.append((cls, attr, original, self._wrap(f"{mod}.{fn}", original)))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                # `from .x import f` copies the binding, so rebind it everywhere.
                for owner in modules:
                    if owner.__dict__.get(attr) is original:
                        patches.append((owner, attr, original, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[sid] = (sid, parent, self.query, name, start, end)

        return traced

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False

    def layer_totals(self, scales: dict) -> tuple:
        """(calls, self seconds) per span name, plus calls per (query, name).

        Self time is scaled by ``scales[query]``, the host-speed correction of
        the query the span belongs to.
        """
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        per_query = defaultdict(int)
        for sid, _, query, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start - child[sid]) * scales[query]
            per_query[query, name] += 1
        return calls, self_s, per_query

    def write(self, path) -> None:
        """Write every span as JSON; called once, after the timed phase."""
        keys = ("id", "parent", "query", "name", "start_s", "end_s")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
