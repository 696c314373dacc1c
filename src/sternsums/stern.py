"""Stern array rows and power sums over consecutive pairs.

Row n holds the 2^n - 1 nonzero values s(n, 1) .. s(n, 2^n - 1), generated
from a single 1 by inserting the sum between adjacent entries (with zeros
padding the outside).  The power sum of a form f over row n is

    S_n(f) = sum over k = 0 .. 2^n - 1 of f(s(n, k), s(n, k + 1)),

where s(n, 0) = s(n, 2^n) = 0, so the boundary pairs (0, 1) and (1, 0) are
included; for n = 1 the sum is f(0, 1) + f(1, 0).

Two independent evaluation routes are provided: direct summation over a
generated row, and the transfer route, which iterates the boundary
functional g -> g(0,1) + g(1,0) as a row vector through the transfer
matrix on the swap-symmetric quotient.  Step n of that iteration holds
S_n of every monomial class at once (power_sum_table), and
power_sum_sequence contracts each step with the form's coefficients
folded onto the swap classes.  The agreement of the two routes is a core
test invariant; the per-form iteration of the full transfer matrix is the
transfer route's oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Union

from .forms import HomogPoly, sym_dimension, sym_quotient
from .linalg import RationalMatrix

Rational = Union[int, Fraction]

DEFAULT_ROW_CAP = 24


class RowCapError(ValueError):
    """Row index outside the generable range; names the configured cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(
            f"row index {n} is outside the valid range 1 <= n <= {cap} "
            f"(configured cap {cap})"
        )


@dataclass(frozen=True)
class SternRow:
    """One row of the array: 1-based index n and its 2^n - 1 nonzero entries."""

    n: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != 2**self.n - 1:
            raise ValueError(
                f"row {self.n} must have {2 ** self.n - 1} entries, "
                f"got {len(self.entries)}"
            )

    def __len__(self):
        return len(self.entries)


def _expand(prev: list) -> list:
    """One insertion step: copy the row and insert pairwise sums."""
    m = len(prev)
    out = [0] * (2 * m + 1)
    for i in range(2 * m + 1):
        if i & 1:
            out[i] = prev[(i - 1) >> 1]
        else:
            k = i >> 1
            v = prev[k - 1] if k >= 1 else 0
            if k < m:
                v += prev[k]
            out[i] = v
    return out


def stern_row(n: int, cap: int = DEFAULT_ROW_CAP) -> SternRow:
    """Generate row n (iteratively from row 1; nothing is memoized).

    Raises RowCapError for n < 1 or n > cap; the cap bounds memory at
    2^cap - 1 entries.
    """
    if n < 1 or n > cap:
        raise RowCapError(n, cap)
    row = [1]
    for _ in range(n - 1):
        row = _expand(row)
    return SternRow(n, tuple(row))


def _pair_evaluator(f: HomogPoly):
    """Callable (x, y) -> f(x, y) for row-pair evaluation.

    A single-term form gets a pow-based path, which sums an integer monomial
    over a row three to four times faster than Horner does; every other
    form uses f itself.
    """
    terms = [(a, c) for a, c in enumerate(f.coeffs) if c]
    if len(terms) == 1:
        a, c = terms[0]
        b = f.degree - a
        return lambda x, y: c * x**a * y**b
    return f.__call__


def power_sum_direct(n: int, f: HomogPoly, cap: int = DEFAULT_ROW_CAP) -> Rational:
    """S_n(f) by brute force over the generated row, boundary pairs included."""
    row = stern_row(n, cap).entries
    ev = _pair_evaluator(f)
    total = ev(0, row[0]) + ev(row[-1], 0)
    prev = row[0]
    for cur in row[1:]:
        total += ev(prev, cur)
        prev = cur
    return total


def _boundary_steps(r: int, n_max: int, phi_sym: RationalMatrix):
    """Yield u_1 .. u_n_max, the boundary functional's steps on the quotient.

    S_n(f) = l . phi^(n-1) . f with l = e_0 + e_r.  The swap fixes l and
    commutes with phi, so l . phi^(n-1) = u_n @ projection for the
    projection of sym_quotient(r), and u_(n+1) = u_n @ phi_sym runs
    ceil((r+1)/2) wide on integers.  The start is u_1 = e_0, or [2] for
    r = 0, where l = 2 e_0.
    """
    cols = list(zip(*phi_sym.rows))
    u = [2 if r == 0 else 1] + [0] * (len(cols) - 1)
    yield u
    for _ in range(n_max - 1):
        u = [sum(map(mul, col, u)) for col in cols]
        yield u


def power_sum_sequence(f: HomogPoly, n_max: int) -> list:
    """[S_1(f), ..., S_n_max(f)] from n_max - 1 steps on the swap quotient.

    No row is generated: the cost is polynomial in the degree and linear in
    n_max, so large n is cheap.  A caller that needs only S_n takes the last
    entry.  S_n(f) = u_n . (projection @ f) for the steps u_n of the
    boundary functional (see _boundary_steps): the projection folds each
    coefficient onto its swap class, and each step is contracted as it is
    produced, so no table is held.  S_n is linear in f, so a rational form
    is contracted on integers as d*f, for the lcm d of its denominators,
    and each sum is divided by d at the end.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    r = f.degree
    projection, phi_sym = sym_quotient(r)
    d = math.lcm(*[c.denominator for c in f.coeffs if isinstance(c, Fraction)])
    g = projection.mat_vec([int(c * d) for c in f.coeffs])
    out = [sum(map(mul, u, g)) for u in _boundary_steps(r, n_max, phi_sym)]
    return out if d == 1 else [Fraction(s, d) for s in out]


def power_sum_table(r: int, n_max: int, phi_sym: RationalMatrix) -> list:
    """[S_1, ..., S_n_max] of x^(r-i) y^i for every swap class i at once.

    Step n of the boundary functional (see _boundary_steps) holds S_n of
    every monomial class: entry i of u_n is S_n(x^(r-i) y^i), as the
    projection maps that monomial to the basis vector of class i.  phi_sym
    is the induced matrix of sym_quotient(r).  Entry i of the result is the
    sequence of class i, which holds x^(r-i) y^i and its swap x^i y^(r-i).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = sym_dimension(r)
    if phi_sym.nrows != m or phi_sym.ncols != m:
        raise ValueError(
            f"quotient matrix is {phi_sym.nrows}x{phi_sym.ncols} but degree "
            f"{r} needs {m}x{m}"
        )
    return [list(seq) for seq in zip(*_boundary_steps(r, n_max, phi_sym))]
