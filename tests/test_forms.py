"""Forms, substitution operators, transfer matrix, and the quotient."""

import random
from fractions import Fraction

import pytest

from sternsums.forms import (
    IDENTITY,
    IOTA,
    RHO,
    RHO_TWIST,
    SIGMA,
    TAU,
    HomogPoly,
    Mat2,
    _swap_fold,
    anti_quotient,
    monomial_name,
    operator_matrix,
    phi_matrix,
    substitute,
    sym_quotient,
)
from sternsums.linalg import RationalMatrix


TAU_INVERSE = Mat2(1, -1, 0, 1)


def swap_matrix(r: int) -> RationalMatrix:
    """Matrix of f(x, y) -> f(y, x): the anti-diagonal permutation."""
    n = r + 1
    return RationalMatrix([[1 if i + j == r else 0 for j in range(n)] for i in range(n)])


def swap_projection(r: int, sign: int) -> RationalMatrix:
    """The quotient projection of this swap sign, built row by row: row i
    adds sign times the coefficient of x^i y^(r-i) to that of x^(r-i) y^i,
    the middle monomial once.  The oracle of forms._swap_fold."""
    m = (r + 2) // 2 if sign == 1 else (r + 1) // 2
    rows = []
    for i in range(m):
        row = [0] * (r + 1)
        row[r - i] = 1
        row[i] += sign if i != r - i else 0
        rows.append(row)
    return RationalMatrix(rows)


def fold_matrix(r: int, sign: int) -> list:
    """The matrix of _swap_fold on degree-r forms, one column per monomial."""
    units = [[int(a == b) for a in range(r + 1)] for b in range(r + 1)]
    return [list(row) for row in zip(*(_swap_fold(e, sign) for e in units))]


def test_shear_constants_and_derived_products():
    assert (SIGMA.a, SIGMA.b, SIGMA.c, SIGMA.d) == (1, 0, 1, 1)
    assert (TAU.a, TAU.b, TAU.c, TAU.d) == (1, 1, 0, 1)
    assert TAU @ TAU_INVERSE == IDENTITY == TAU_INVERSE @ TAU
    assert RHO == SIGMA @ TAU_INVERSE
    assert IOTA == SIGMA @ TAU_INVERSE @ SIGMA
    assert RHO_TWIST == TAU_INVERSE @ SIGMA
    for m in (SIGMA, TAU, RHO, IOTA, RHO_TWIST):
        assert m.a * m.d - m.b * m.c == 1
    assert RHO == Mat2(1, -1, 1, 0)
    assert IOTA == Mat2(0, -1, 1, 0)


def test_substitute_goldens():
    # lower shear sends x^3 to (x+y)^3
    assert substitute(SIGMA, HomogPoly.monomial(3, 3)) == HomogPoly([1, 3, 3, 1])
    f = HomogPoly([Fraction(1, 2), -3, 0, 5])
    assert substitute(IDENTITY, f) == f
    # quarter turn: f(y, -x) sends x^2 to y^2
    assert substitute(IOTA, HomogPoly.monomial(2, 2)) == HomogPoly([1, 0, 0])


def test_substitute_composes_with_matrix_product():
    rng = random.Random(1901)
    for _ in range(80):
        g = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
        d = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
        r = rng.randint(0, 6)
        f = HomogPoly(
            [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(r + 1)]
        )
        assert substitute(g @ d, f) == substitute(g, substitute(d, f))


def test_operator_matrix_contract():
    rng = random.Random(55)
    for _ in range(30):
        g = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
        r = rng.randint(0, 5)
        m = operator_matrix(g, r)
        f = HomogPoly([rng.randint(-4, 4) for _ in range(r + 1)])
        assert m.mat_vec(list(f.coeffs)) == list(substitute(g, f).coeffs)


def test_operator_matrix_of_shears_is_binomial_triangle():
    from math import comb

    m = operator_matrix(SIGMA, 3)
    assert m.to_lists() == [[comb(b, a) for b in range(4)] for a in range(4)]
    assert operator_matrix(IDENTITY, 5) == RationalMatrix.identity(6)
    # twist matrix at r=2, verified per monomial by hand expansion of f(y, y-x)
    assert operator_matrix(RHO_TWIST, 2).to_lists() == [
        [1, 1, 1],
        [-2, -1, 0],
        [1, 0, 0],
    ]


def test_operator_matrix_rho_r2_column_by_column():
    m = operator_matrix(RHO, 2)
    for b in range(3):
        expanded = substitute(RHO, HomogPoly.monomial(b, 2))
        assert [m[a, b] for a in range(3)] == list(expanded.coeffs)


def test_phi_matrix_goldens():
    assert phi_matrix(3).to_lists() == [
        [2, 1, 1, 1],
        [3, 2, 2, 3],
        [3, 2, 2, 3],
        [1, 1, 1, 2],
    ]
    assert phi_matrix(0).to_lists() == [[2]]
    assert phi_matrix(2).to_lists() == [[2, 1, 1], [2, 2, 2], [1, 1, 2]]


def test_phi_matrix_equals_sum_of_shear_operators():
    for r in range(0, 41):
        assert phi_matrix(r) == operator_matrix(SIGMA, r) + operator_matrix(TAU, r)


def test_swap_inverts_the_twist():
    # J rho J = rho^-1 for J = f(x, y) -> f(y, x): the swap maps the twist's
    # eigenspaces at -1 and at the primitive cube roots of 1 onto themselves,
    # which is what lets spectra eliminate their swap halves apart
    swap = Mat2(0, 1, 1, 0)
    assert swap @ RHO_TWIST @ swap @ RHO_TWIST == IDENTITY
    inverse = RHO_TWIST @ RHO_TWIST @ RHO_TWIST @ RHO_TWIST @ RHO_TWIST
    for r in range(0, 21):
        j = swap_matrix(r)
        assert j @ operator_matrix(RHO_TWIST, r) @ j == operator_matrix(inverse, r), r


def test_finite_orders_of_twist_and_quarter_turn():
    for r in range(2, 41, 2):
        n = r + 1
        ident = RationalMatrix.identity(n)
        for g in (RHO, RHO_TWIST):
            m = operator_matrix(g, r)
            assert m @ m @ m == ident, (g, r)
        i = operator_matrix(IOTA, r)
        assert i @ i == ident, r
    for r in range(1, 40, 2):
        m = operator_matrix(RHO, r)
        m3 = m @ m @ m
        assert m3 == -RationalMatrix.identity(r + 1)
        assert m3 @ m3 == RationalMatrix.identity(r + 1)


def test_phi_commutes_with_swap():
    for r in range(0, 41):
        s = swap_matrix(r)
        p = phi_matrix(r)
        assert p @ s == s @ p, r


def test_sym_quotient_goldens():
    phi_sym = sym_quotient(3)
    assert phi_sym.to_lists() == [[3, 2], [6, 4]]
    assert fold_matrix(3, 1) == [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert sym_quotient(0).to_lists() == [[2]]
    proj2 = swap_projection(2, 1)
    phi_sym2 = sym_quotient(2)
    assert proj2 @ phi_matrix(2) == phi_sym2 @ proj2
    assert phi_sym2.to_lists() == [[3, 2], [2, 2]]


def test_sym_quotient_commuting_square():
    for r in range(0, 41):
        proj, phi_sym = swap_projection(r, 1), sym_quotient(r)
        assert proj @ phi_matrix(r) == phi_sym @ proj, r
        assert phi_sym.nrows == (r + 2) // 2


def test_projection_convention_keeps_integers():
    assert fold_matrix(4, 1) == [
        [1, 0, 0, 0, 1],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 0],
    ]
    assert fold_matrix(4, -1) == [
        [-1, 0, 0, 0, 1],
        [0, -1, 0, 1, 0],
    ]


def test_swap_fold_against_the_projection_rows():
    # the fold is the projection, and it carries phi onto each block:
    # fold(phi v) == block fold(v), on unit and on random vectors
    rng = random.Random(18)
    for r in range(0, 41):
        phi = phi_matrix(r)
        units = [[int(a == b) for a in range(r + 1)] for b in range(r + 1)]
        vectors = units + [[rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(3)]
        for sign in (1, -1) if r else (1,):
            proj = swap_projection(r, sign)
            block = sym_quotient(r, phi) if sign == 1 else anti_quotient(r, phi)
            for v in vectors:
                folded = _swap_fold(v, sign)
                assert folded == proj.mat_vec(v), (r, sign, v)
                assert _swap_fold(phi.mat_vec(v), sign) == block.mat_vec(folded), (r, sign)
    assert _swap_fold([5], -1) == []


def test_form_evaluation_and_algebra():
    f = HomogPoly([1, 0, -2, 5])  # 5x^3 - 2x^2 y + y^3
    assert f(1, 1) == 4
    assert f(2, 3) == 5 * 8 - 2 * 4 * 3 + 27
    assert HomogPoly(f.coeffs[::-1]) == HomogPoly([5, -2, 0, 1])
    g = f + f
    assert g == 2 * f
    assert (f - f).coeffs == (0, 0, 0, 0)
    assert f.degree == 3
    assert HomogPoly([7]).degree == 0
    assert HomogPoly([7])(100, -3) == 7


def test_monomial_helpers():
    assert HomogPoly.monomial(2, 3).coeffs == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        HomogPoly.monomial(4, 3)
    assert monomial_name(3, 3) == "x^3"
    assert monomial_name(2, 3) == "x^2*y"
    assert monomial_name(0, 2) == "y^2"
    assert monomial_name(0, 0) == "1"


def test_int_coeffs_detection():
    # integral coefficients are stored as ints, which the pow-based
    # evaluator of single-term forms relies on
    assert HomogPoly([1, Fraction(4, 2)]).coeffs == (1, 2)
    assert all(type(c) is int for c in HomogPoly([1, Fraction(4, 2)]).coeffs)
    assert HomogPoly([1, Fraction(1, 2)]).coeffs == (1, Fraction(1, 2))
    with pytest.raises(TypeError):
        HomogPoly([1, 0.5])
