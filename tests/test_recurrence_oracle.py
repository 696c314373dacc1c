"""Berlekamp-Massey mining against the Hankel oracle, and mine's modular
lift against the fraction-free Berlekamp-Massey.

The oracle is the ascending-length search over `fit_recurrence`, which
solves the full window of equations exactly at every candidate length (and,
for the affine-alternating variant, in the order b = c = 0, then b = 0, then
c = 0).  Both miners must agree on every input: the same LinearRecurrence,
or the same InsufficientDataError message and required_terms.

`mine_all_monomials` mines every class from one recurrence of the degree,
lifted as `sums` lifts a form's (`stern._lift_recurrence`), checked once
per class and reduced by one gcd per class
(`recurrences._class_connections`).  Two routes on each class's own suffix
are its oracles: the lift, and the exact, fraction-free
`recurrences._berlekamp_massey`.  All three give the same connection
polynomial for every class, and the fraction-free one the same `mine`
output.
"""

import contextlib
import io
import random
from fractions import Fraction
from operator import mul

import pytest

import sternsums.recurrences as recurrences
from sternsums.cli import MINE_MAX_DEGREE, main
from sternsums.forms import HomogPoly, monomial_name, sym_quotient
from sternsums.recurrences import (
    AFFINE_ALT,
    HOMOGENEOUS,
    InsufficientDataError,
    _certifiable_max_length,
    corollary_bound,
    fit_recurrence,
    min_affine_alt_recurrence,
    min_recurrence,
)
from sternsums.stern import _lift_recurrence, power_sum_sequence, power_sum_table

MINERS = {HOMOGENEOUS: min_recurrence, AFFINE_ALT: min_affine_alt_recurrence}


def hankel_min_recurrence(seq, n0, variant):
    """Shortest certifiable fit by ascending length, one exact solve each."""
    extra = 2 if variant == AFFINE_ALT else 0
    max_len = (len(seq) - n0 - 2) // 2 - extra
    if max_len < 0:
        needed = n0 + 2 * extra + 2
        raise InsufficientDataError(
            f"horizon of {len(seq)} terms cannot certify any recurrence from "
            f"n0={n0}; need at least {needed} terms",
            needed,
        )
    for length in range(max_len + 1):
        rec = fit_recurrence(seq, n0, length, variant)
        if rec is not None:
            return rec
    needed = n0 + 2 * (max_len + 1 + extra) + 2
    raise InsufficientDataError(
        f"no recurrence of length <= {max_len} fits the horizon of "
        f"{len(seq)} terms from n0={n0}; certifying length {max_len + 1} "
        f"needs at least {needed} terms",
        needed,
    )


def outcome(miner, seq, n0, *variant):
    try:
        return miner(seq, n0, *variant)
    except InsufficientDataError as exc:
        return ("InsufficientDataError", str(exc), exc.required_terms)


def assert_agrees(seq, n0):
    """Both variants' outcomes, after checking them against the oracle."""
    outcomes = []
    for variant, miner in MINERS.items():
        mined = outcome(miner, seq, n0)
        expected = outcome(hankel_min_recurrence, seq, n0, variant)
        assert mined == expected, (variant, n0, seq)
        outcomes.append(mined)
    return outcomes


@pytest.mark.parametrize("r", range(1, 15))
def test_every_monomial_class_matches_the_oracle(r):
    horizon = 2 * corollary_bound(r, HOMOGENEOUS) + 8
    for a in range((r + 1) // 2, r + 1):
        seq = power_sum_sequence(HomogPoly.monomial(a, r), horizon)
        for n0 in (1, 2, 3):
            assert_agrees(seq, n0)


def _random_sequence(rng, rational):
    """A recurrent tail b + c*(-1)^n + sum a_j S_{n-j} behind a transient."""

    def number(span):
        if rational:
            return Fraction(rng.randint(-span, span), rng.randint(1, 4))
        return rng.randint(-span, span)

    order = rng.randint(0, 4)
    coeffs = [number(3) for _ in range(order)]
    b, c = rng.choice(
        [(0, 0), (number(5), 0), (0, number(5)), (number(5), number(5))]
    )
    seq = [number(9) for _ in range(rng.randint(0, 3))]  # off the recurrence
    tail = [number(9) for _ in range(order)]
    while len(tail) < 30:
        n = len(seq) + len(tail) + 1
        total = b + c * (-1) ** n
        for j, a in enumerate(coeffs, start=1):
            total += a * tail[-j]
        tail.append(total)
    seq += tail
    return seq[: rng.randint(1, len(seq))]


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_random_sequences_match_the_oracle(rational):
    rng = random.Random(20190121 + rational)
    seen = set()
    for _ in range(300):
        seq = _random_sequence(rng, rational)
        for rec in assert_agrees(seq, rng.randint(1, 4)):
            if isinstance(rec, tuple):
                seen.add("too short")
                continue
            seen.add((bool(rec.affine_b), bool(rec.alternating_c)))
            if rec.coefficients and not rec.coefficients[-1]:
                seen.add("a_L = 0")
            if rec.length >= 4:
                seen.add("length >= 4")
    # every case the draws are meant to reach is reached
    assert seen == {
        "too short", "a_L = 0", "length >= 4",
        (False, False), (True, False), (False, True), (True, True),
    }


@pytest.mark.parametrize(
    "seq, n0",
    [
        ([0] * 12, 1),  # zero tail
        ([7, -3] + [0] * 10, 2),  # zero tail behind a transient
        ([4, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1),  # a_1 = 0: S_n = 0 * S_(n-1)
        ([2, 5] + [5 * 3**k for k in range(1, 12)], 1),  # a_L = 0 from a transient
        ([3] * 14, 1),  # pure b tail
        ([Fraction(5, 2)] * 14, 2),
        ([(-1) ** n * 6 for n in range(1, 15)], 1),  # pure c tail
        ([9] + [(-1) ** n * 6 for n in range(2, 15)], 2),
        ([1 + (-1) ** n for n in range(1, 15)], 1),
        ([n for n in range(1, 15)], 1),  # b with a root of multiplicity 2 at 1
        ([n * (-1) ** n for n in range(1, 15)], 1),  # the same at -1
        ([2**n + 3 + (-1) ** n for n in range(1, 15)], 1),
    ],
)
def test_edge_sequences_match_the_oracle(seq, n0):
    assert_agrees(seq, n0)


def test_short_horizons_raise_the_oracle_error():
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    for n_terms in range(0, len(fib) + 1):
        for n0 in (1, 2, 3):
            assert_agrees(fib[:n_terms], n0)
    # too short for the affine length, long enough for the homogeneous one
    with pytest.raises(InsufficientDataError) as err:
        min_affine_alt_recurrence(fib[:9], 1)
    assert err.value.required_terms == 11
    assert min_recurrence(fib[:9], 1).coefficients == (1, 1)


# -- mine's degree route against each class's lift and fraction-free run ------


def _class_routes(r, n_terms):
    """(degree route, lifted, fraction-free) connection polynomials of every
    class's suffix, in mining order."""
    table = power_sum_table(r, n_terms, sym_quotient(r))
    longest = _certifiable_max_length(n_terms, 2, 0)
    degree = recurrences._class_connections(r, table, n_terms)
    for a, conn in zip(range((r + 1) // 2, r + 1), degree, strict=True):
        suffix = table[r - a][1:]
        w = _lift_recurrence(suffix, longest, f"r={r}, a={a}")
        yield conn, [1, *[-x for x in reversed(w)]], recurrences._berlekamp_massey(suffix)


def test_every_class_lifts_the_fraction_free_connection_polynomial():
    for r in range(1, 41):
        for degree, lifted, exact in _class_routes(r, 2 * corollary_bound(r) + 8):
            assert degree == lifted == exact, r
    for r in (2, 11, 24, 40):
        for degree, lifted, exact in _class_routes(r, 200):
            assert degree == lifted == exact, r


@pytest.mark.parametrize("r, holding", [(4, 0), (10, 1), (22, 1)])
def test_a_forged_degree_recurrence_is_refused_at_its_check_index(monkeypatch, r, holding):
    # the "degree's recurrence" is the class x^(r-1)*y's own, one shorter
    # than the degree's: the first class in mining order that it does not
    # annihilate refuses it at the one index checked, n = L + 2, after
    # `holding` classes that it does annihilate
    n_terms = 2 * corollary_bound(r) + 8
    table = power_sum_table(r, n_terms, sym_quotient(r))
    longest = _certifiable_max_length(n_terms, 2, 0)
    forged = _lift_recurrence(table[1][1:], longest, "x^(r-1)*y")
    length = len(forged)
    monkeypatch.setattr(recurrences, "_lift_recurrence", lambda *args: forged)
    for a in range((r + 1) // 2, r + 1):
        suffix = table[r - a][1:]
        residuals = [
            suffix[k] - sum(map(mul, forged, suffix[k - length:k]))
            for k in range(length, len(suffix))
        ]
        if residuals[0]:
            break
        # a class that passes at index L holds the forged recurrence at
        # every later index, as the single check proves
        assert not any(residuals), (r, a)
    else:
        raise AssertionError("the forged recurrence annihilates every class")
    assert a - (r + 1) // 2 == holding
    label = f"r={r}, class {monomial_name(a, r)}: "
    with pytest.raises(ArithmeticError) as err:
        recurrences._class_connections(r, table, n_terms)
    assert str(err.value).startswith(label)
    assert str(err.value).endswith(f"fails its exact check at n={length + 2}")


def _fraction_free_connections(r, table, n_terms):
    """The exact route in the degree route's place: recurrences._berlekamp_massey
    on every class's suffix, whose connection polynomial must be monic for
    mine to read it."""
    longest = _certifiable_max_length(n_terms, 2, 0)
    connections = []
    for a in range((r + 1) // 2, r + 1):
        c = recurrences._berlekamp_massey(table[r - a][1:])
        if len(c) - 1 > longest:
            raise recurrences._too_long(n_terms, 2, longest, 0)
        if c[0] != 1:
            raise AssertionError(f"r={r}, a={a}: the minimal recurrence is not integral")
        connections.append(c)
    return connections


def _mine(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mine", *argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.extended
def test_mine_matches_the_exact_route_to_the_degree_cap(monkeypatch):
    # `mine r --affine --json` on the degree route and on the fraction-free
    # run of every class, for every degree up to the cap: the same exit code
    # and the same bytes
    for r in range(1, MINE_MAX_DEGREE + 1):
        mined = _mine(str(r), "--affine", "--json")
        with monkeypatch.context() as patch:
            patch.setattr(recurrences, "_class_connections", _fraction_free_connections)
            assert _mine(str(r), "--affine", "--json") == mined, r
        assert mined[0] == 0, r
