"""Homogeneous binary forms and the substitution operators acting on them.

A degree-r form is stored as its coefficient vector indexed by the power of
x: coeffs[a] is the coefficient of x^a y^(r-a).  An integer 2x2 matrix
gamma = [[a, b], [c, d]] acts by substitution,

    (gamma * f)(x, y) = f(a*x + c*y, b*x + d*y),

which is expanded with exact binomials, never by evaluation-interpolation.
Substitution composes covariantly with the matrix product:
substitute(gamma @ delta, f) == substitute(gamma, substitute(delta, f)).

The transfer matrix (phi_matrix) is the sum of the two shear substitutions;
it drives every power-sum computation downstream.  It commutes with the
swap f(x, y) -> f(y, x), and its blocks (sym_quotient, anti_quotient) act
on the swap classes: class i holds x^(r-i) y^i and x^i y^(r-i).
_swap_fold maps a form onto the classes of either sign, and it is the one
fold that the blocks, the twist halves and the power sums share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Union

from .linalg import RationalMatrix, _normalize_entry

Rational = Union[int, Fraction]


class HomogPoly:
    """Homogeneous polynomial in x, y with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple([_normalize_entry(c) for c in coeffs])  # see RationalMatrix
        if not cs:
            raise ValueError("a form needs at least the degree-0 coefficient")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def monomial(cls, x_power: int, degree: int) -> "HomogPoly":
        """x^a y^(r-a) for a = x_power."""
        if not 0 <= x_power <= degree:
            raise ValueError(f"x power must lie in 0..{degree}")
        coeffs = [0] * (degree + 1)
        coeffs[x_power] = 1
        return cls(coeffs)

    def __call__(self, x: Rational, y: Rational) -> Rational:
        coeffs = self.coeffs
        r = len(coeffs) - 1
        # Horner in x, with the matching y power folded into each addend.
        acc = coeffs[r]
        yp = 1
        ypows = [1] * (r + 1)
        for i in range(1, r + 1):
            yp *= y
            ypows[i] = yp
        for a in range(r - 1, -1, -1):
            c = coeffs[a]
            acc = acc * x + (c * ypows[r - a] if c else 0)
        return acc

    def __eq__(self, other):
        return isinstance(other, HomogPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return HomogPoly([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degrees")
        return HomogPoly([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, scalar: Rational) -> "HomogPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return HomogPoly([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __repr__(self):
        return f"HomogPoly({list(self.coeffs)!r})"

    def __str__(self):
        terms = []
        r = self.degree
        for a in range(r, -1, -1):
            c = self.coeffs[a]
            if not c:
                continue
            mono = monomial_name(a, r)
            if mono == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def monomial_name(x_power: int, degree: int) -> str:
    a, b = x_power, degree - x_power
    if a == 0 and b == 0:
        return "1"
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts)


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)
#: Lower shear: substitutes f(x+y, y).
SIGMA = Mat2(1, 0, 1, 1)
#: Upper shear: substitutes f(x, x+y).
TAU = Mat2(1, 1, 0, 1)
#: The product of the shears' twist, sigma @ tau^-1; order 6 on the plane.
RHO = Mat2(1, -1, 1, 0)
#: Quarter turn, sigma @ tau^-1 @ sigma; substitutes f(y, -x).
IOTA = Mat2(0, -1, 1, 0)
#: tau^-1 @ sigma: "apply the lower shear, then undo the upper one".  The
#: transfer matrix factors as tau-substitution following (this + identity),
#: so its eigenspaces are the ones the transfer matrix annihilates or
#: negates.  Conjugate to RHO, hence with identical eigenvalue counts.
RHO_TWIST = Mat2(0, -1, 1, 1)


def substitute(gamma: Mat2, f: HomogPoly) -> HomogPoly:
    """gamma * f, by exact binomial expansion of the substituted monomials."""
    r = f.degree
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    out = [0] * (r + 1)
    for alpha, coeff in enumerate(f.coeffs):
        if not coeff:
            continue
        beta = r - alpha
        first = [comb(alpha, i) * a**i * c ** (alpha - i) for i in range(alpha + 1)]
        second = [comb(beta, j) * b**j * d ** (beta - j) for j in range(beta + 1)]
        for i, fi in enumerate(first):
            if not fi:
                continue
            base = coeff * fi
            for j, sj in enumerate(second):
                if sj:
                    out[i + j] += base * sj
    return HomogPoly(out)


def operator_matrix(gamma: Mat2, r: int) -> RationalMatrix:
    """Matrix of the substitution action on degree-r forms.

    Columns are indexed by the source monomial's x power b, rows by the
    target power a, so M @ coeffs(f) == coeffs(substitute(gamma, f)).
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    cols = [substitute(gamma, HomogPoly.monomial(b, r)).coeffs for b in range(r + 1)]
    return RationalMatrix([[cols[b][a] for b in range(r + 1)] for a in range(r + 1)])


def phi_matrix(r: int) -> RationalMatrix:
    """The transfer matrix: sum of the two shear substitutions.

    Entry (a, b) is C(b, a) + C(r-b, r-a), computed directly from binomials;
    agreement with operator_matrix(SIGMA) + operator_matrix(TAU) is a test
    invariant, not an implementation detail.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    return RationalMatrix(
        [[comb(b, a) + comb(r - b, r - a) for b in range(r + 1)] for a in range(r + 1)]
    )


def sym_dimension(r: int) -> int:
    """Dimension of the swap-symmetric quotient: ceil((r+1)/2)."""
    return (r + 2) // 2


def sym_quotient(r: int, phi: RationalMatrix | None = None) -> RationalMatrix:
    """The transfer matrix induced on the swap-symmetric quotient.

    The quotient identifies f(x, y) with f(y, x).  Its basis is the classes
    [x^r], [x^(r-1) y], ... down to the middle monomial: class i holds
    x^(r-i) y^i and x^i y^(r-i), and _swap_fold(coeffs, 1) maps a form onto
    the classes, with the self-paired middle monomial of even r once.  The
    block phi_sym satisfies fold(phi_matrix(r) @ f) == phi_sym @ fold(f).  A
    caller that already holds phi_matrix(r) passes it as phi.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    return _swap_quotient(r, 1, phi)


def anti_quotient(r: int, phi: RationalMatrix | None = None) -> RationalMatrix:
    """The transfer matrix induced on the quotient by symmetric forms.

    The quotient identifies f with f + g for every g with g(x, y) == g(y, x).
    Its basis is the classes [x^r], [x^(r-1) y], ... of the monomials x^(r-i)
    y^i with r - i > i; _swap_fold(coeffs, -1) subtracts the coefficient of
    x^i y^(r-i) from that of x^(r-i) y^i.  The block phi_anti satisfies
    fold(phi_matrix(r) @ f) == phi_anti @ fold(f), and together with
    sym_quotient it splits the spectrum of the transfer matrix.  Degree 0
    has no antisymmetric form.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    return _swap_quotient(r, -1, phi)


def _swap_fold(vec, sign: int) -> list:
    """vec, indexed by x power, folded onto the swap classes of this sign.

    Entry i is vec[r-i] + sign * vec[i], for each class i of x^(r-i) y^i
    with r - i >= i.  The middle monomial of even r enters once, and only
    for sign 1: an antisymmetric form has no middle class.
    """
    r = len(vec) - 1
    return [
        vec[r - i] + sign * vec[i] if 2 * i != r else vec[i]
        for i in range(sym_dimension(r) if sign == 1 else (r + 1) // 2)
    ]


def _swap_quotient(r: int, sign: int, phi: RationalMatrix | None) -> RationalMatrix:
    """The block on which the swap acts as sign (see sym_quotient).

    Class j is represented by its monomial of x power r - j, so column j
    of the block is the fold of phi's column r - j.
    """
    if phi is None:
        phi = phi_matrix(r)
    cols = list(zip(*phi.rows))
    m = sym_dimension(r) if sign == 1 else (r + 1) // 2
    return RationalMatrix(zip(*[_swap_fold(cols[r - j], sign) for j in range(m)]))
