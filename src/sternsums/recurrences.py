"""Minimal linear recurrences for power-sum sequences.

A recurrence of length L with offset n0 asserts

    S_n = a_1 S_{n-1} + ... + a_L S_{n-L} + b + c*(-1)^n

for every n with n - L >= n0, i.e. the identity never references a term
before index n0.  Sequences are 1-indexed: seq[0] is S_1.  With the default
offset n0 = 2 the cubic power-sum sequence 1, 3, 21, 147, ... satisfies the
length-1 recurrence with coefficient 7 (checked from n = 3 onward, where
every referenced term has index >= 2).

A sequence's recurrences are read from one Berlekamp-Massey run over the
suffix that starts at n0 (J. L. Massey, "Shift-register synthesis and BCH
decoding", IEEE Trans. Inf. Theory 15, 1969), which yields the minimal
annihilator m of that suffix.  The homogeneous answer is m itself; the
affine-alternating answer is m / gcd(m, x^2 - 1), with b and c read off
two consecutive residuals.  Both are unique at their minimal length while
the horizon certifies that length, and each is checked exactly once against
every term of the window before it is returned.  min_recurrence and
min_affine_alt_recurrence take any rational sequence, whose minimal
recurrence may have rational coefficients (2^-n has), so they run the
exact, fraction-free Berlekamp-Massey.  A power-sum sequence's minimal
recurrence has integer coefficients, so mine_all_monomials runs the modular
lift of the transfer route's sums instead (stern._lift_recurrence:
Berlekamp-Massey mod primes, Chinese remaindering, an exact check), once
per degree, on a weighted sum of its classes' sequences.  One exact check
per class at a single index proves that recurrence on every class, and
each class's minimal recurrence follows from it by one polynomial gcd
(rational function reconstruction).  The annihilator route provides the proof-backed counterpart: the characteristic
polynomial of the quotient transfer matrix, with known eigenvalue factors
divided out, read as a recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .forms import monomial_name, sym_dimension, sym_quotient
from .linalg import (
    IntPolynomial,
    RationalMatrix,
    _exact_quotient,
    _integer_rows,
    _normalize_entry,
    _poly_mul,
    charpoly,
    divide_out,
    polynomial_gcd,
    root_power,
    solve_linear,
)
from .spectra import (
    LENGTH_BOUND_EVEN_AFFINE_ALT,
    LENGTH_BOUND_EVEN_HOMOGENEOUS,
    LENGTH_BOUND_ODD,
    _dim_value,
)
from .stern import _lift_recurrence, power_sum_table

Rational = Union[int, Fraction]

HOMOGENEOUS = "homogeneous"
AFFINE_ALT = "affine_alt"


class InsufficientDataError(ValueError):
    """The horizon is too short to certify a recurrence of the wanted length."""

    def __init__(self, message: str, required_terms: int):
        self.required_terms = required_terms
        super().__init__(message)


@dataclass(frozen=True)
class LinearRecurrence:
    """Length, coefficients a_1..a_L, offset n0, and affine/alternating terms."""

    length: int
    coefficients: tuple
    n0: int
    affine_b: Rational = 0
    alternating_c: Rational = 0

    def __post_init__(self):
        if self.length != len(self.coefficients):
            raise ValueError("length must match the number of coefficients")
        if self.n0 < 1:
            raise ValueError("offset n0 must be a positive index")

    @property
    def first_checked_index(self) -> int:
        """Smallest n at which the identity is asserted: n0 + length."""
        return self.n0 + self.length

    def rhs(self, seq: Sequence[Rational], n: int) -> Rational:
        """Right-hand side at index n (1-based) over the given sequence."""
        window = seq[n - 1 - self.length:n - 1]
        terms = sum(map(mul, reversed(self.coefficients), window))
        return self.affine_b + self.alternating_c * (-1) ** n + terms

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "coefficients": list(self.coefficients),
            "n0": self.n0,
            "affine_b": self.affine_b,
            "alternating_c": self.alternating_c,
        }


def verify_recurrence(seq: Sequence[Rational], rec: LinearRecurrence) -> bool:
    """Exact check of the identity at every index from n0 + length onward.

    Vacuously true when the window is empty.
    """
    for n in range(rec.first_checked_index, len(seq) + 1):
        if seq[n - 1] != rec.rhs(seq, n):
            return False
    return True


def fit_recurrence(
    seq: Sequence[Rational],
    n0: int,
    length: int,
    variant: str = HOMOGENEOUS,
) -> LinearRecurrence | None:
    """Exact fit of one candidate length over the full window, or None.

    Mining does not call it; an ascending search over it is the tests'
    reference for the Berlekamp-Massey miner.  The window runs from
    n = n0 + length to the horizon; all equations must hold
    simultaneously.  For the affine-alternating variant the constant
    and (-1)^n columns are appended, and ties are broken by preferring
    b = c = 0, then b = 0, then c = 0 (lexicographic minimization of
    (|b|, |c|) in the cases that occur here).
    """
    if n0 < 1:
        raise ValueError("offset n0 must be a positive index")
    if length < 0:
        raise ValueError("length must be nonnegative")
    start = n0 + length
    ns = range(start, len(seq) + 1)
    if len(ns) == 0 and length > 0:
        raise InsufficientDataError(
            f"no data in the window [{start}, {len(seq)}] to fit length {length}",
            start,
        )
    if variant == HOMOGENEOUS:
        stages = [(False, False)]
    elif variant == AFFINE_ALT:
        stages = [(False, False), (False, True), (True, False), (True, True)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    for use_b, use_c in stages:
        rows = []
        rhs = []
        for n in ns:
            row = [seq[n - 1 - j] for j in range(1, length + 1)]
            if use_b:
                row.append(1)
            if use_c:
                row.append((-1) ** n)
            rows.append(row)
            rhs.append(seq[n - 1])
        if rows and not rows[0]:
            # length 0 with no affine columns: the tail must vanish.
            sol = [] if not any(rhs) else None
        else:
            sol = solve_linear(rows, rhs) if rows else []
        if sol is None:
            continue
        coeffs = tuple(_normalize_entry(c) for c in sol[:length])
        b = _normalize_entry(sol[length]) if use_b else 0
        c = _normalize_entry(sol[-1]) if use_c else 0
        rec = LinearRecurrence(length, coeffs, n0, b, c)
        if verify_recurrence(seq, rec):
            return rec
    return None


def _certifiable_max_length(n_terms: int, n0: int, extra_unknowns: int) -> int:
    # Fitting needs `length + extra` equations and as many held-out checks
    # again, so the window [n0 + length, n_terms] must hold at least
    # 2*(length + extra) + 2 terms.
    return (n_terms - n0 - 2) // 2 - extra_unknowns


def min_recurrence(seq: Sequence[Rational], n0: int) -> LinearRecurrence:
    """Shortest homogeneous recurrence that holds on the whole horizon.

    A length is only accepted while the window leaves at least as many
    validation equations as unknowns, which also makes the recurrence of
    that length unique.  Raises InsufficientDataError when no certifiable
    length fits.
    """
    return _min_recurrence_impl(seq, n0, HOMOGENEOUS)


def min_affine_alt_recurrence(seq: Sequence[Rational], n0: int) -> LinearRecurrence:
    """Shortest recurrence allowing the extra b + c*(-1)^n terms."""
    return _min_recurrence_impl(seq, n0, AFFINE_ALT)


def _berlekamp_massey(values: Sequence[int]) -> list:
    """Connection coefficients c[0..L] of the shortest recurrence
    sum_i c[i] * s[n-i] = 0 (for every n >= L) of an integer sequence.

    Fraction-free: each update scales instead of dividing, and c is divided
    by its content, so c is a primitive integer vector with c[0] > 0.  It
    always has L + 1 entries, c[L] = 0 when the connection polynomial has
    degree below L.
    """
    c, prev = [1], [1]
    length, shift, prev_d = 0, 1, 1
    for n in range(len(values)):
        d = sum(x * values[n - i] for i, x in enumerate(c))
        if not d:
            shift += 1
            continue
        new = [prev_d * x for x in c]
        new += [0] * (len(prev) + shift - len(new))
        for i, x in enumerate(prev):
            if x:
                new[i + shift] -= d * x
        g = math.gcd(*new) if new[0] > 0 else -math.gcd(*new)
        if g != 1:
            new = [x // g for x in new]
        if 2 * length <= n:
            length, prev, prev_d, shift = n + 1 - length, c, d, 1
        else:
            shift += 1
        c = new
    return c


def _suffix_annihilator(seq: Sequence[Rational], n0: int) -> list:
    """Berlekamp-Massey over seq[n0-1:], cleared of denominators.

    Scaling a sequence leaves its recurrences unchanged, so a rational
    sequence is multiplied through by the lcm of its denominators first.
    """
    [tail], _ = _integer_rows([seq[n0 - 1:]])
    return _berlekamp_massey(tail)


def _divide_out_period_two(conn: list) -> list:
    """conn with the factors 1 - x and 1 + x that divide it removed.

    Connection polynomials are reversed characteristic polynomials, so this
    is m / gcd(m, x^2 - 1) for the characteristic polynomial m.
    """
    for factor in ([1, -1], [1, 1]):
        quotient = _exact_quotient(conn, factor)
        if quotient is not None:
            conn = quotient
    return conn


def _too_long(n_terms: int, n0: int, max_len: int, extra: int) -> InsufficientDataError:
    needed = n0 + 2 * (max_len + 1 + extra) + 2
    return InsufficientDataError(
        f"no recurrence of length <= {max_len} fits the horizon of "
        f"{n_terms} terms from n0={n0}; certifying length {max_len + 1} "
        f"needs at least {needed} terms",
        needed,
    )


def _min_recurrence_impl(seq, n0, variant, annihilator=None) -> LinearRecurrence:
    """Minimal recurrence of the given variant, read from one Berlekamp-Massey
    run: the fraction-free one on the suffix, or the connection polynomial
    of the suffix's minimal recurrence passed in as `annihilator`
    (mine_all_monomials reads it from the degree's recurrence).

    A homogeneous fit of length L is a connection polynomial of degree <= L,
    so the minimum is the Berlekamp-Massey length.  An affine-alternating fit
    A(E)S = b + c*(-1)^n makes (x^2 - 1)A an annihilator of the suffix; while
    the horizon certifies its length, the minimal annihilator m divides it,
    so the shortest A is m / gcd(m, x^2 - 1).  At the minimal length A is
    unique, hence so are b and c, and the preference for b = c = 0, then
    b = 0, then c = 0 has nothing left to choose.
    """
    if n0 < 1:
        raise ValueError("offset n0 must be a positive index")
    if variant not in (HOMOGENEOUS, AFFINE_ALT):
        raise ValueError(f"unknown variant {variant!r}")
    extra = 2 if variant == AFFINE_ALT else 0
    max_len = _certifiable_max_length(len(seq), n0, extra)
    if max_len < 0:
        needed = n0 + 2 * extra + 2
        raise InsufficientDataError(
            f"horizon of {len(seq)} terms cannot certify any recurrence from "
            f"n0={n0}; need at least {needed} terms",
            needed,
        )
    conn = _suffix_annihilator(seq, n0) if annihilator is None else annihilator
    if variant == AFFINE_ALT:
        conn = _divide_out_period_two(conn)
    length = len(conn) - 1
    if length > max_len:
        raise _too_long(len(seq), n0, max_len, extra)
    if conn[0] == 1:
        coeffs = tuple([-x for x in conn[1:]])
    else:
        coeffs = tuple([_normalize_entry(Fraction(-x, conn[0])) for x in conn[1:]])
    b = c = 0
    if variant == AFFINE_ALT:
        # residuals at n and n + 1 are b + c*(-1)^n and b - c*(-1)^n
        first = n0 + length
        homogeneous = LinearRecurrence(length, coeffs, n0)
        r1, r2 = (seq[n - 1] - homogeneous.rhs(seq, n) for n in (first, first + 1))
        b = _normalize_entry(Fraction(r1 + r2, 2))
        c = _normalize_entry(Fraction(r1 - r2, 2) * (-1) ** first)
    rec = LinearRecurrence(length, coeffs, n0, b, c)
    if not verify_recurrence(seq, rec):
        raise ArithmeticError(
            f"the Berlekamp-Massey recurrence of length {length} fails the "
            f"exact check on the window from n0={n0}"
        )
    return rec


def corollary_bound(r: int, variant: str = HOMOGENEOUS) -> int:
    """Guaranteed recurrence-length bound for degree-r power sums.

    The affine-alternating variant only differs for even r; for odd r the
    homogeneous bound is returned.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    if variant not in (HOMOGENEOUS, AFFINE_ALT):
        raise ValueError(f"unknown variant {variant!r}")
    if r % 2:
        fn = LENGTH_BOUND_ODD
    elif variant == AFFINE_ALT:
        fn = LENGTH_BOUND_EVEN_AFFINE_ALT
    else:
        fn = LENGTH_BOUND_EVEN_HOMOGENEOUS
    return _dim_value(fn, r)


def shortened_annihilator(
    r: int, phi_sym: RationalMatrix | None = None
) -> IntPolynomial:
    """Annihilating polynomial of the quotient transfer matrix, shortened.

    Odd r: the characteristic polynomial with the full power of x divided
    out.  Even r: all (x-1) and (x+1) factors divided out, then one of each
    multiplied back in.  Read as a recurrence this annihilates S_n(f) for
    every degree-r form f from the valid start onward.  A caller that
    already holds the quotient matrix of sym_quotient(r) passes it as
    phi_sym.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    if phi_sym is None:
        phi_sym = sym_quotient(r)
    cp = charpoly(phi_sym)
    if r % 2:
        m0 = root_power(cp, 0)
        return divide_out(cp, IntPolynomial.x(), m0)
    m_plus = root_power(cp, 1)
    m_minus = root_power(cp, -1)
    g = divide_out(cp, IntPolynomial([-1, 1]), m_plus)
    g = divide_out(g, IntPolynomial([1, 1]), m_minus)
    return g * IntPolynomial([-1, 1]) * IntPolynomial([1, 1])


def annihilator_recurrence(
    r: int, phi_sym: RationalMatrix | None = None
) -> LinearRecurrence:
    """shortened_annihilator(r, phi_sym) read as a homogeneous recurrence.

    For odd r the x-power divided out shifts the guaranteed start: with m
    the multiplicity of 0, the recurrence holds once every referenced term
    has index above m, so n0 = m + 1.  For even r nothing was removed that
    the quotient matrix does not satisfy outright, and n0 = 1.
    """
    poly = shortened_annihilator(r, phi_sym)
    if not poly.is_monic():
        raise ArithmeticError(f"r={r}: the annihilator {poly} is not monic")
    length = poly.degree()
    coeffs = tuple([-poly.coeffs[length - j] for j in range(1, length + 1)])
    # the characteristic polynomial has degree sym_dimension(r), so for odd r
    # the power of x divided out is the degree the annihilator lost
    n0 = sym_dimension(r) - length + 1 if r % 2 else 1
    return LinearRecurrence(length, coeffs, n0)


@dataclass(frozen=True)
class MiningResult:
    """Mined recurrences for one monomial class, with the bound comparison."""

    r: int
    x_power: int
    label: str
    recurrence: LinearRecurrence
    bound: int
    within_bound: bool
    best_n0: int
    annihilator_validates: bool
    affine: LinearRecurrence | None = None
    affine_bound: int | None = None
    affine_within_bound: bool | None = None

    def to_json_dict(self) -> dict:
        out = {
            "r": self.r,
            "monomial": self.label,
            "recurrence": self.recurrence.to_json_dict(),
            "bound": self.bound,
            "within_bound": self.within_bound,
            "best_n0": self.best_n0,
            "annihilator_validates": self.annihilator_validates,
        }
        if self.affine is not None:
            out["affine"] = self.affine.to_json_dict()
            out["affine_bound"] = self.affine_bound
            out["affine_within_bound"] = self.affine_within_bound
        return out


def _class_connections(r: int, table: list, n_terms: int) -> list:
    """Connection polynomials of every class's minimal recurrence from
    n0 = 2, for x^a y^(r-a) with a from ceil(r/2) to r: one lift for the
    degree, then one exact check and one gcd per class.

    Each has L + 1 entries for its length L, with C[0] = 1 and C[L] = 0 when
    its degree is below L, as _berlekamp_massey gives it on the class's
    suffix S_2 .. S_n_terms; mine_all_monomials has the proof.  Raises
    InsufficientDataError when the horizon cannot certify the degree's
    recurrence, and ArithmeticError naming r and the class that refuses it.
    """
    longest = _certifiable_max_length(n_terms, 2, 0)
    suffixes = [seq[1:] for seq in table]
    weighted = [
        sum(map(mul, range(1, len(table) + 1), column)) for column in zip(*suffixes)
    ]
    lifted = _lift_recurrence(weighted, longest, f"r={r}")
    if lifted is None:
        raise _too_long(n_terms, 2, longest, 0)
    length = len(lifted)
    degree_conn = IntPolynomial([1, *[-w for w in reversed(lifted)]])
    connections = []
    for a in range((r + 1) // 2, r + 1):
        suffix = suffixes[r - a]
        if sum(map(mul, lifted, suffix[:length])) != suffix[length]:
            raise ArithmeticError(
                f"r={r}, class {monomial_name(a, r)}: the degree's recurrence "
                f"of length {length} fails its exact check at n={length + 2}"
            )
        numerator = IntPolynomial(_poly_mul(suffix[:length], degree_conn.coeffs, length))
        g = polynomial_gcd(degree_conn, numerator).coeffs
        if g[0] < 0:  # g(0) divides C(0) = 1
            g = [-x for x in g]
        conn = _exact_quotient(degree_conn.coeffs, g)
        num = _exact_quotient(numerator.coeffs, g)
        class_length = max(len(conn) - 1, len(num))
        connections.append([*conn, *[0] * (class_length + 1 - len(conn))])
    return connections


def mine_all_monomials(
    r: int, n_terms: int | None = None, include_affine: bool | None = None
) -> list:
    """Minimal recurrences for every monomial class of degree r.

    One result per class x^a y^(r-a) with a from ceil(r/2) to r (the swap
    symmetry makes the rest redundant).  Every class reads its sequence from
    one shared table, power_sum_table, which iterates the boundary
    functional once on the swap-symmetric quotient; the quotient matrix it
    runs on also gives the annihilator, so the degree builds phi once.
    Each mined length is compared with the guaranteed bound, and the
    annihilator recurrence is validated against every sequence.  The
    horizon defaults to twice the homogeneous bound plus eight.

    The classes are mined from one recurrence of the degree
    (_class_connections).  The suffixes S_2 .. S_n_terms of the m classes,
    weighted by 1, 2, ..., m in table order, add up to one sequence, and
    the lift that sums runs (stern._lift_recurrence) gives its minimal
    recurrence w of length L, with the longest length the horizon
    certifies.  One exact check per class at the single index L (S_(L+2))
    proves w on every class at every later index: row i of the table is
    coordinate i of u_n = u_2 A^(n-2), for the quotient matrix A of
    _boundary_steps, so at the suffix index k >= L the residuals of all m
    classes form the vector u_2 A^(k-L) q(A) = y A^(k-L), for w's
    polynomial q(x) = x^L - (w_L x^(L-1) + ... + w_1) and the residuals y
    = u_2 q(A) at index L; the check is y = 0.  Which w it is does not
    matter to that proof; a class that refuses it raises ArithmeticError
    naming r and the class.

    So each class's suffix s has the generating function P/C, for w's
    connection polynomial C = 1 - w_L x - ... - w_1 x^L and P = (s C) mod
    x^L.  In lowest terms, P'/C' with C' = C/G and P' = P/G for G =
    gcd(C, P) (linalg.polynomial_gcd; J. von zur Gathen and J. Gerhard,
    Modern Computer Algebra, on rational function reconstruction), it gives
    the minimal recurrence of s over Q: connection polynomial C', and length
    L' = max(deg C', deg P' + 1) <= L.  G(0) = +-1 divides C(0) = 1, so C'
    is integral with C'(0) = 1 once G is signed with G(0) = 1, and C' is
    padded to L' + 1 entries, so that a zero oldest coefficient survives
    (r = 65 has one).  _certifiable_max_length leaves the suffix at least
    2L + 3 terms, so no recurrence shorter than L' generates it (two that
    generate L' + l terms have the same generating function), and C' is the
    connection polynomial that the fraction-free Berlekamp-Massey finds on
    the suffix (tests/test_recurrence_oracle.py compares them).  Each
    returned homogeneous recurrence is checked once more on its window.

    The weighted sum is a form's sums, so its connection polynomial is
    integral (_form_recurrence has the argument): the lift returns nothing,
    and the horizon is refused, only when that recurrence is longer than the
    horizon certifies, and it ends within its budget of primes.  Had the
    weights missed a class, that class would refuse w; no class refuses it
    at any degree up to the command line's cap.
    """
    bound = corollary_bound(r, HOMOGENEOUS)
    minimum = 2 * bound + 8
    if n_terms is None:
        n_terms = minimum
    elif n_terms < minimum:
        raise InsufficientDataError(
            f"a horizon of {n_terms} terms is below the required horizon of "
            f"{minimum} for degree {r}",
            minimum,
        )
    if include_affine is None:
        include_affine = r % 2 == 0
    phi_sym = sym_quotient(r)
    table = power_sum_table(r, n_terms, phi_sym)
    ann = annihilator_recurrence(r, phi_sym)
    affine_bound = corollary_bound(r, AFFINE_ALT) if include_affine else None
    connections = _class_connections(r, table, n_terms)
    results = []
    for a, annihilator in zip(range((r + 1) // 2, r + 1), connections):
        seq = table[r - a]
        rec = _min_recurrence_impl(seq, 2, HOMOGENEOUS, annihilator)
        affine = None
        affine_within = None
        if include_affine:
            affine = _min_recurrence_impl(seq, 2, AFFINE_ALT, annihilator)
            affine_within = affine.length <= affine_bound
        # rec is checked from n0 = 2 on; n0 = 1 adds the one index length + 1
        best_n0 = 1 if seq[rec.length] == rec.rhs(seq, rec.length + 1) else 2
        results.append(
            MiningResult(
                r=r,
                x_power=a,
                label=monomial_name(a, r),
                recurrence=rec,
                bound=bound,
                within_bound=rec.length <= bound,
                best_n0=best_n0,
                annihilator_validates=verify_recurrence(seq, ann),
                affine=affine,
                affine_bound=affine_bound,
                affine_within_bound=affine_within,
            )
        )
    return results
