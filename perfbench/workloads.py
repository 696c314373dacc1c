"""Workload inputs and output checks for the sternsums benchmark.

Every workload is a list of queries, each one in-process call of
``sternsums.cli.main(argv)``.  ``prepare`` builds that list from the seed
(set-up); ``Checker.check`` judges one query's captured output outside the
timed region.  NOTE.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("verify-band", "mine-band", "sums-mix")
VERIFY_BAND = range(41, 51)
MINE_BAND = range(1, 25)

# A query is called back to back until its calls add up to this many
# seconds, and its latency is the median call.  Half the queries of
# mine-band take 0.2 s or less, and its latency median falls between two of
# them: single calls that short moved query_p50_s by up to a quarter from
# run to run, as a brief stall of the host lands in one call or misses it.
# sums-mix has 120 queries a pass, so it needs no repeats.
MIN_QUERY_S = {"verify-band": 1.0, "mine-band": 1.0, "sums-mix": 0.0}

# Python refuses int -> str conversions past sys.get_int_max_str_digits();
# sternsums computes such values and then exits 2 while rendering them.
DIGIT_LIMIT_MESSAGE = "Exceeds the limit"

# The benchmark's own direct power sums cover rows 1..DIRECT_CHECK_ROWS.
DIRECT_CHECK_ROWS = 8


# sums-mix shapes, fixed so that the cost of a batch does not depend on the
# seed; the seed draws only exponents and coefficients.  Coefficients are
# positive, so an output's digit count is set by (degree, n_max) to within a
# few digits: the two degree-40 shapes at n_max = 600 (about 5000 digits) hit
# the int-to-str digit limit on every seed, and no other shape passes 2600.
# Rational forms take the slow Fraction path, so their transfer-route shapes
# stop at degree 20.
BOTH_SHAPES = {  # degree: n_max per kind, run with --both
    d: {"monomial": (11, 13, 14, 16), "dense": (10, 12, 13), "rational": (7, 9, 10)}
    for d in (2, 3, 5, 7, 8, 10)
}
FAST_SHAPES = {  # degree: n_max per kind, transfer route only
    12: {
        "monomial": (200, 300, 400, 500, 600),
        "dense": (250, 350, 450, 550, 600),
        "rational": (100, 150, 200, 250, 300),
    },
    20: {
        "monomial": (100, 200, 300, 400, 500),
        "dense": (150, 250, 350, 450, 500),
        "rational": (60, 80, 100, 120, 140),
    },
    30: {
        "monomial": (100, 150, 200, 250, 300, 350, 400),
        "dense": (100, 125, 175, 225, 275, 325, 375, 400),
    },
    40: {
        "monomial": (60, 100, 140, 180, 220, 260, 600),
        "dense": (60, 100, 140, 180, 220, 260, 300, 600),
    },
}


def _sums_grid() -> list:
    """(route, degree, kind, n_max) for the 120 sums-mix queries."""
    return [
        (route, d, kind, n)
        for route, shapes in (("both", BOTH_SHAPES), ("fast", FAST_SHAPES))
        for d, by_kind in shapes.items()
        for kind, ns in by_kind.items()
        for n in ns
    ]


SUMS_GRID = _sums_grid()


@dataclass(frozen=True)
class Query:
    """One CLI call; ``coeffs`` (sums only) lists the form's coefficients."""

    argv: tuple
    degree: int
    coeffs: tuple = ()

    @property
    def label(self) -> str:
        return "sternsums " + " ".join(self.argv)


@dataclass
class Outcome:
    """What one query did: exit code, captured streams and wall time."""

    code: int
    stdout: str
    stderr: str
    seconds: float


def import_program():
    """Import sternsums from this checkout's src/; raise ImportError if absent."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sternsums.cli

    origin = Path(sternsums.cli.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"sternsums was imported from {origin}, not from {src}")
    return sternsums


def _monomial_spec(a: int, d: int) -> str:
    parts = [f"x^{a}"] if a else []
    if d - a:
        parts.append(f"y^{d - a}")
    return "*".join(parts)


def _draw_form(rng: random.Random, kind: str, d: int) -> tuple:
    """(spec string, coefficients) of one random form of the given kind."""
    if kind == "monomial":
        a = rng.randint(0, d)
        return _monomial_spec(a, d), tuple(Fraction(int(i == a)) for i in range(d + 1))
    if kind == "dense":
        coeffs = tuple(Fraction(rng.randint(1, 9)) for _ in range(d + 1))
        return "coeffs=[" + ",".join(str(c) for c in coeffs) + "]", coeffs
    # Denominators are fixed by position, so every seed pays the same
    # Fraction overhead; the seed draws numerators coprime to them.
    coeffs = []
    for i in range(d + 1):
        q = 2 + i % 8
        coeffs.append(Fraction(rng.choice([p for p in range(1, 10) if math.gcd(p, q) == 1]), q))
    return "coeffs=[" + ",".join(str(c) for c in coeffs) + "]", tuple(coeffs)


def prepare(name: str, seed: int) -> tuple:
    """(queries, checker) for one workload; only sums-mix uses the seed."""
    sternsums = import_program()
    if name == "verify-band":
        queries = [Query(("verify", str(r), str(r), "--json"), r) for r in VERIFY_BAND]
    elif name == "mine-band":
        queries = [Query(("mine", str(r), "--affine", "--json"), r) for r in MINE_BAND]
    elif name == "sums-mix":
        rng = random.Random(seed)
        queries = []
        for route, d, kind, n in SUMS_GRID:
            spec, coeffs = _draw_form(rng, kind, d)
            flags = ("--both", "--json") if route == "both" else ("--json",)
            queries.append(Query(("sums", spec, str(n)) + flags, d, coeffs))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    return queries, Checker(sternsums, expected.get(name, {}))


def _next_stern_row(row: list) -> list:
    padded = [0] + row + [0]
    out = []
    for a, b in zip(padded, padded[1:]):
        out += [a + b, b]
    return out[:-1]


def direct_power_sums(coeffs: tuple, n_max: int) -> list:
    """S_1..S_n_max of the form by summing over generated rows.

    Written independently of the package: integer arithmetic on the form
    scaled by the common denominator, divided back at the end.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    r = len(coeffs) - 1
    out = []
    row = [1]
    for _ in range(n_max):
        padded = [0] + row + [0]
        total = 0
        for x, y in zip(padded, padded[1:]):
            total += sum(c * x**a * y ** (r - a) for a, c in enumerate(ints) if c)
        out.append(Fraction(total, den))
        row = _next_stern_row(row)
    return out


class Checker:
    """Judges captured outputs against recorded digests and exact identities."""

    def __init__(self, sternsums, expected_digests: dict):
        self._recurrences = sternsums.recurrences
        self._digests = expected_digests
        self._annihilators = {}

    def check(self, query: Query, outcome: Outcome) -> tuple:
        """(failed, problem): problem is None when the output is correct.

        Raises ValueError, KeyError or TypeError on output that is not the
        expected JSON document.

        A sums query that stops at the int-to-str digit limit is failed but
        not wrong: it is the known defect, counted and named, not hidden.
        """
        if query.argv[0] == "sums":
            if outcome.code == 2 and DIGIT_LIMIT_MESSAGE in outcome.stderr:
                return True, None
            if outcome.code != 0:
                return True, f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
            problem = self._check_sums(query, json.loads(outcome.stdout))
            return problem is not None, problem
        if outcome.code != 0:
            return True, f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
        flag = "all_passed" if query.argv[0] == "verify" else "all_within_bounds"
        if json.loads(outcome.stdout)["results"][flag] is not True:
            return True, f"{flag} is not true"
        digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        if digest != self._digests.get(str(query.degree)):
            return True, f"output digest {digest[:16]} differs from the recorded one"
        return False, None

    def _check_sums(self, query: Query, doc: dict) -> str | None:
        n_max = int(query.argv[2])
        values = [Fraction(v) for v in doc["results"]["values"]]
        if len(values) != n_max:
            return f"{len(values)} values for n_max {n_max}"
        if "--both" in query.argv and doc["results"].get("paths_agree") is not True:
            return "paths_agree is not true"
        k = min(n_max, DIRECT_CHECK_ROWS)
        if values[:k] != direct_power_sums(query.coeffs, k):
            return f"S_1..S_{k} differ from the direct sums"
        rec = self._annihilator(query.degree)
        for n in range(rec.n0 + rec.length, n_max + 1):
            rhs = sum(a * values[n - 1 - j] for j, a in enumerate(rec.coefficients, start=1))
            if values[n - 1] != rhs:
                return f"S_{n} breaks the degree-{query.degree} annihilator recurrence"
        return None

    def _annihilator(self, r: int):
        if r not in self._annihilators:
            self._annihilators[r] = self._recurrences.annihilator_recurrence(r)
        return self._annihilators[r]
