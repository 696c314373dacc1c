"""Stern array rows and power sums over consecutive pairs.

Row n holds the 2^n - 1 nonzero values s(n, 1) .. s(n, 2^n - 1), generated
from a single 1 by inserting the sum between adjacent entries (with zeros
padding the outside).  The power sum of a form f over row n is

    S_n(f) = sum over k = 0 .. 2^n - 1 of f(s(n, k), s(n, k + 1)),

where s(n, 0) = s(n, 2^n) = 0, so the boundary pairs (0, 1) and (1, 0) are
included; for n = 1 the sum is f(0, 1) + f(1, 0).

Two independent evaluation routes are provided: direct summation over
generated rows, and the transfer route, which iterates the boundary
functional g -> g(0,1) + g(1,0) as a row vector through the transfer
matrix on the swap-symmetric quotient.  Step n of that iteration holds
S_n of every monomial class at once (power_sum_table).  power_sum_sequence
contracts each step with the form's coefficients folded onto the swap
classes (forms._swap_fold), but only over a short head: it then extends
the sums by the degree's shortened annihilator, the paper's recurrence of
length about r/3, once an exact certificate on the head proves that the
recurrence holds for every later n.  The agreement of the two routes is a core test
invariant; the per-form iteration of the full transfer matrix is the
transfer route's oracle in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from typing import Union

from .forms import HomogPoly, _swap_fold, sym_dimension, sym_quotient
from .linalg import RationalMatrix, _integer_rows

Rational = Union[int, Fraction]

#: Memory doubles per row: `row 20 --json` takes about 0.8 s and 210 MB, and
#: `row 21 --json` 1.9 s and 410 MB, on one core of a 2-core Intel Xeon.
DEFAULT_ROW_CAP = 20


class RowCapError(ValueError):
    """Row index outside the generable range; names the cap, DEFAULT_ROW_CAP."""

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
    out = [0] * (2 * len(prev) + 1)
    out[1::2] = prev
    out[0::2] = map(add, [0, *prev], [*prev, 0])
    return out


def _rows(n: int):
    """Iterator over rows 1 .. n as lists, each built from the one before by
    one insertion step.

    The cap is checked here, before any row is built: raises RowCapError
    naming n for n < 1 or n > DEFAULT_ROW_CAP.  The cap bounds memory at
    2^DEFAULT_ROW_CAP - 1 entries.
    """
    if n < 1 or n > DEFAULT_ROW_CAP:
        raise RowCapError(n, DEFAULT_ROW_CAP)
    return accumulate(range(n - 1), lambda row, _: _expand(row), initial=[1])


def _last_row(n: int) -> list:
    """Row n as a list: the last of the walk _rows(n), kept alone."""
    (row,) = deque(_rows(n), maxlen=1)
    return row


def stern_row(n: int) -> SternRow:
    """Generate row n (iteratively from row 1; nothing is memoized).

    Raises RowCapError for n < 1 or n > DEFAULT_ROW_CAP.
    """
    return SternRow(n, tuple(_last_row(n)))


def _row_power_sum(row: list, f: HomogPoly) -> Rational:
    """S_n(f) over the entries of row n, boundary pairs included.

    The row is padded with s(n, 0) = s(n, 2^n) = 0, and each term
    c x^a y^(r-a) of f is summed over the consecutive pairs at C level.
    """
    padded = [0, *row, 0]
    xs, ys = padded[:-1], padded[1:]
    r = f.degree
    total = 0
    for a, c in enumerate(f.coeffs):
        if c:
            total += c * sum(map(mul, map(pow, xs, repeat(a)), map(pow, ys, repeat(r - a))))
    return total


def power_sum_direct(n: int, f: HomogPoly) -> Rational:
    """S_n(f) by brute force over the generated row, boundary pairs included."""
    return _row_power_sum(_last_row(n), f)


def power_sum_direct_sequence(f: HomogPoly, n_max: int) -> list:
    """[S_1(f), ..., S_n_max(f)] by brute force over rows 1 .. n_max.

    One walk builds each row from the one before, so it costs about what
    generating row n_max alone does.  Raises RowCapError naming n_max, before
    any row is built, for n_max < 1 or n_max > DEFAULT_ROW_CAP.
    """
    return [_row_power_sum(row, f) for row in _rows(n_max)]


def _boundary_steps(r: int, n_max: int, phi_sym: RationalMatrix):
    """Yield u_1 .. u_n_max, the boundary functional's steps on the quotient.

    S_n(f) = l . phi^(n-1) . f with l = e_0 + e_r.  The swap fixes l and
    commutes with phi, so l . phi^(n-1) . f = u_n . _swap_fold(f, 1) for
    the block phi_sym of sym_quotient(r), and u_(n+1) = u_n @ phi_sym runs
    ceil((r+1)/2) wide on integers.  The start is u_1 = e_0, or [2] for
    r = 0, where l = 2 e_0.
    """
    cols = list(zip(*phi_sym.rows))
    u = [2 if r == 0 else 1] + [0] * (len(cols) - 1)
    yield u
    for _ in range(n_max - 1):
        u = [sum(map(mul, col, u)) for col in cols]
        yield u


def _extend_certified(head: list, rec, n_max: int, r: int) -> list:
    """head, the sums S_1 .. S_W, extended to S_1 .. S_n_max by rec.

    One expression both checks and extends: rec must reproduce every sum of
    head from rec.first_checked_index on before it produces a new one.
    power_sum_sequence sizes head so that the check covers sym_dimension(r)
    consecutive indices, which proves rec for every later n.  Raises
    ArithmeticError naming r when the check fails.
    """
    length = rec.length
    coeffs = rec.coefficients[::-1]
    out = list(head)
    for n in range(rec.first_checked_index, n_max + 1):
        value = sum(map(mul, coeffs, out[n - 1 - length:n - 1]))
        if n > len(head):
            out.append(value)
        elif value != out[n - 1]:
            raise ArithmeticError(
                f"r={r}: the annihilator recurrence of length {length} fails "
                f"its certificate at S_{n}"
            )
    return out


def power_sum_sequence(f: HomogPoly, n_max: int) -> list:
    """[S_1(f), ..., S_n_max(f)]: a head of quotient steps, then a certified
    recurrence.

    No row is generated: the cost is polynomial in the degree and linear in
    n_max, so large n is cheap.  A caller that needs only S_n takes the last
    entry.  S_n(f) = u_n . _swap_fold(f, 1) for the steps u_n of the
    boundary functional (see _boundary_steps): the fold adds each
    coefficient onto its swap class.  S_n is linear in f, so a rational
    form is contracted on integers as d*f, for the lcm d of its
    denominators, and each sum is divided by d at the end.

    Past the head, each sum is a combination of the last L sums, for the
    recurrence rec = annihilator_recurrence(r) of length L and offset n0:
    L multiplications per term instead of the m^2 of a step, m =
    ceil((r+1)/2).  The head holds W = n0 + L + m - 1 steps, and rec is
    checked exactly on its last m indices n0 + L .. W.  That check proves
    rec for every later n: the residual b_n = S_n - (a_1 S_(n-1) + ... +
    a_L S_(n-L)) is u_1 . A^(n-L-1) . q(A) . g for the quotient matrix A,
    rec's polynomial q and the folded form g, so by Cayley-Hamilton it
    satisfies the charpoly of A, of degree m, and m consecutive zeros force
    every later b_n to vanish.  For odd r rec holds by Cayley-Hamilton
    anyway; for even r it rests on the paper's semisimplicity at +-1, which
    the check certifies for this query.  A failed check raises
    ArithmeticError naming r.

    r = 0, and any n_max <= 2m, stay on the iteration alone: for odd r the
    head is 2m steps anyway, and the charpoly costs about as much as 2m
    steps or more (measured at r = 10 .. 100), so the recurrence cannot pay
    for itself there.
    """
    # recurrences imports this module, so the name is read at call time
    from .recurrences import annihilator_recurrence

    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    r = f.degree
    phi_sym = sym_quotient(r)
    [coeffs], d = _integer_rows([f.coeffs])
    g = _swap_fold(coeffs, 1)
    m = len(g)
    window = n_max
    if r and n_max > 2 * m:
        rec = annihilator_recurrence(r, phi_sym)
        window = min(n_max, rec.first_checked_index + m - 1)
    out = [sum(map(mul, u, g)) for u in _boundary_steps(r, window, phi_sym)]
    if window < n_max:
        out = _extend_certified(out, rec, n_max, r)
    return out if d == 1 else [Fraction(s, d) for s in out]


def power_sum_table(r: int, n_max: int, phi_sym: RationalMatrix) -> list:
    """[S_1, ..., S_n_max] of x^(r-i) y^i for every swap class i at once.

    Step n of the boundary functional (see _boundary_steps) holds S_n of
    every monomial class: entry i of u_n is S_n(x^(r-i) y^i), as the fold
    maps that monomial to the basis vector of class i.  phi_sym is the
    block of sym_quotient(r).  Entry i of the result is the sequence of
    class i, which holds x^(r-i) y^i and its swap x^i y^(r-i).
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
