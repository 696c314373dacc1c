"""Exact linear algebra: goldens plus independent small-scale oracles.

The fraction-free (Bareiss) route is cross-checked against a plain rational
Gaussian eliminator written here, and the Berkowitz characteristic
polynomial against a cofactor expansion over polynomial entries.  Minimal
polynomials and linear solves, which run on the same Bareiss elimination,
are checked against their definitions, and the integer back substitution of
kernel vectors against back substitution in Fractions.  The modular
polynomial gcd is checked against the primitive polynomial remainder
sequence.  Polynomials are evaluated at a matrix by Horner's rule on
RationalMatrix arithmetic, here in the tests only.
"""

import math
import random
from fractions import Fraction

import pytest

from sternsums.cli import VERIFY_MAX_DEGREE
from sternsums.forms import RHO_TWIST, operator_matrix, phi_matrix, sym_quotient
from sternsums.linalg import (
    InexactDivisionError,
    IntPolynomial,
    NonSquareMatrixError,
    RationalMatrix,
    _bareiss_echelon,
    _integer_kernel,
    _integer_rows,
    _kernel_vector,
    charpoly,
    divide_out,
    eigen_multiplicity,
    is_squarefree,
    kernel_basis,
    minpoly,
    nullity,
    polynomial_gcd,
    rank,
    solve_linear,
)
from sternsums.spectra import spectral_context


# -- oracles ----------------------------------------------------------------


def naive_rank(m: RationalMatrix) -> int:
    """Plain rational Gaussian elimination, no fraction-free tricks."""
    rows = [[Fraction(x) for x in row] for row in m.rows]
    nr, nc = len(rows), len(rows[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break
    return r


def cofactor_charpoly(m: RationalMatrix) -> IntPolynomial:
    """det(xI - m) by recursive cofactor expansion over Z[x]."""
    n = m.nrows
    x = IntPolynomial([0, 1])
    entries = [
        [
            x - IntPolynomial([m.rows[i][j]])
            if i == j
            else IntPolynomial([-m.rows[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        total = IntPolynomial()
        sign = 1
        for j in range(k):
            sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total = total + sign * (mat[0][j] * det(sub))
            sign = -sign
        return total

    return det(entries)


def _pseudo_rem(a, b) -> list:
    """Pseudo-remainder of integer coefficient lists (lowest first)."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        la = a[-1]
        da = len(a) - 1
        a = [lb * c for c in a]
        off = da - db
        for i, bc in enumerate(b):
            a[off + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def prs_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Gcd over Z[x] by the primitive polynomial remainder sequence.

    Normalized as polynomial_gcd: primitive with positive leading coefficient,
    times the gcd of the contents.
    """
    if p.is_zero() and q.is_zero():
        return IntPolynomial()
    if p.is_zero():
        return q.primitive() * q.content()
    if q.is_zero():
        return p.primitive() * p.content()
    c = math.gcd(p.content(), q.content())
    a = list(p.primitive().coeffs)
    b = list(q.primitive().coeffs)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = IntPolynomial(_pseudo_rem(a, b)).primitive()
        a, b = b, list(r.coeffs)
    return IntPolynomial(a).primitive() * c


def horner_at_matrix(p: IntPolynomial, m: RationalMatrix) -> RationalMatrix:
    """p(m) by Horner's rule on RationalMatrix arithmetic."""
    n = m.nrows
    acc = RationalMatrix([[0] * n for _ in range(n)])
    for c in reversed(p.coeffs):
        acc = acc @ m
        if c:
            acc = acc + RationalMatrix.identity(n) * c
    return acc


def fraction_kernel(m: RationalMatrix) -> list:
    """Canonical kernel basis by back substitution in Fractions.

    The same Bareiss echelon form as the library, but each pivot entry is
    solved for as a Fraction from entry 1 at the free column f, so no
    integer scaling is involved.
    """
    ech, piv_cols = _bareiss_echelon(_integer_rows(m.rows)[0])
    basis = []
    for f in range(m.ncols):
        if f in piv_cols:
            continue
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i in range(len(piv_cols) - 1, -1, -1):
            p = piv_cols[i]
            if p > f:
                continue
            row = ech[i]
            s = sum((row[j] * v[j] for j in range(p + 1, f + 1)), Fraction(0))
            v[p] = -s / row[p]
        basis.append(tuple(v))
    return basis


def random_matrix(rng, n, lo=-6, hi=6, rational=False):
    def entry():
        if rational and rng.random() < 0.3:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        return rng.randint(lo, hi)

    return RationalMatrix([[entry() for _ in range(n)] for _ in range(n)])


# -- rank / kernel ----------------------------------------------------------


def test_rank_goldens():
    assert rank(phi_matrix(3)) == 2
    assert rank(RationalMatrix.identity(5)) == 5
    assert rank(RationalMatrix([[0] * 3 for _ in range(3)])) == 0


def test_rank_against_naive_eliminator():
    rng = random.Random(20240517)
    for trial in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, rational=True)
        if trial % 3 == 0:
            # force rank deficiency by stacking a dependent row
            rows = m.to_lists()
            rows[-1] = [2 * a + 3 * b for a, b in zip(rows[0], rows[(n - 1) // 2])]
            m = RationalMatrix(rows)
        assert rank(m) == naive_rank(m)


def test_kernel_golden_for_transfer_matrix():
    kb = kernel_basis(phi_matrix(3))
    assert kb == [(0, -1, 1, 0), (1, -3, 0, 1)]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(RationalMatrix.identity(4)) == []


def test_kernel_vectors_lie_in_kernel_and_count_matches_nullity():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, rational=True)
        kb = kernel_basis(m)
        assert len(kb) == nullity(m) == m.ncols - rank(m)
        for v in kb:
            assert not any(m.mat_vec(list(v)))


def _seeded_kernel_matrices():
    """Rank-deficient, rectangular and rational matrices, and ones whose
    first pivot is negative."""
    rng = random.Random(1968)
    for trial in range(160):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        if trial % 4 == 0 and nr > 2:
            rows[-1] = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
        if trial % 4 == 1:
            for row in rows:
                row[nc - 1] = 2 * row[0]
        if trial % 4 == 2:
            rows = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in rows]
        if trial % 4 == 3:
            rows[0][0] = -abs(rows[0][0]) or -1
        yield RationalMatrix(rows)
    # the last pivot left of the free column 2 is -3
    yield RationalMatrix([[1, 2, 4], [2, 1, 5]])


def _negative_last_pivot(m: RationalMatrix) -> bool:
    """Whether the last pivot left of some free column is negative."""
    ech, piv_cols = _bareiss_echelon(_integer_rows(m.rows)[0])
    for f in range(m.ncols):
        left = [ech[i][p] for i, p in enumerate(piv_cols) if p < f]
        if f not in piv_cols and left and left[-1] < 0:
            return True
    return False


def _cleared(vectors) -> list:
    """Each vector times the lcm of its own denominators, in integers."""
    return [tuple(_integer_rows([v])[0][0]) for v in vectors]


def test_integer_kernel_against_the_fraction_oracle():
    mats = list(_seeded_kernel_matrices())
    for m in mats:
        oracle = fraction_kernel(m)
        assert _integer_kernel(m) == _cleared(oracle), m
        assert kernel_basis(m) == oracle, m
    assert sum(map(_negative_last_pivot, mats)) >= 10


def test_integer_kernel_checks_every_division():
    # not a Bareiss echelon form: the last pivot 3 is not the leading minor 6,
    # so back substitution from w[2] = 3 reaches 2 w[0] = -3
    with pytest.raises(InexactDivisionError):
        _kernel_vector([[2, 0, 1], [0, 3, 1]], [0, 1], 3, 2)
    assert _kernel_vector([[2, 0, 1], [0, 6, 2]], [0, 1], 3, 2) == [-3, -2, 6]


def twist_part(r: int) -> RationalMatrix:
    """twist + 1 for odd r, twist^2 + twist + 1 for even r (kernel W, resp. X)."""
    twist = operator_matrix(RHO_TWIST, r)
    ident = RationalMatrix.identity(r + 1)
    return twist + ident if r % 2 else twist @ twist + twist + ident


def twist_forms(ctx) -> list:
    """(swap sign, form) for every vector of the context's two twist halves.

    The halves are indexed by swap class: entry i of a half of sign s
    gives the coefficient of x^(r-i) y^i, and s times it that of x^i y^(r-i).
    """
    r = ctx.r
    out = []
    for sign, basis in ((1, ctx.twist_sym), (-1, ctx.twist_anti)):
        for w in basis:
            v = [0] * (r + 1)
            for i, x in enumerate(w):
                v[r - i] = x
                v[i] = sign * x
            out.append((sign, v))
    return out


def _assert_halves_span_the_twist_kernel(r: int):
    part = twist_part(r)
    kernel = _integer_kernel(part)
    forms = [v for _, v in twist_forms(spectral_context(r))]
    # in the kernel, independent and as many as its dimension: a basis of it
    assert all(not any(part.mat_vec(v)) for v in forms), r
    assert len(forms) == len(kernel), r
    assert not forms or rank(RationalMatrix(forms)) == len(forms), r


def _assert_twist_kernels_agree(degrees):
    for r in degrees:
        part = twist_part(r)
        oracle = fraction_kernel(part)
        assert _integer_kernel(part) == _cleared(oracle), r
        assert kernel_basis(part) == oracle, r
        _assert_halves_span_the_twist_kernel(r)


def test_integer_kernel_of_the_twist_parts():
    # r = 0 has no antisymmetric form and X = 0, r = 1 has W = 0 on halves
    # one entry wide, and r = 2 a one-entry antisymmetric half: the form
    # -x^2 + 4xy - y^2 from (-1, 4), and x^2 - y^2 from (1,)
    contexts = list(map(spectral_context, range(3)))
    halves = [(ctx.twist_sym, ctx.twist_anti) for ctx in contexts]
    assert halves == [((), ()), ((), ()), (((-1, 4),), ((1,),))]
    assert twist_forms(contexts[2]) == [(1, [-1, 4, -1]), (-1, [-1, 0, 1])]
    # the oracles cost most at the top, so the default sweep samples it
    _assert_twist_kernels_agree([*range(21), 30, 45, 60])


@pytest.mark.extended
def test_integer_kernel_of_the_twist_parts_up_to_r60():
    _assert_twist_kernels_agree(range(61))


@pytest.mark.extended
def test_twist_halves_span_the_twist_kernel_up_to_the_verify_cap():
    for r in range(61, VERIFY_MAX_DEGREE + 1):
        _assert_halves_span_the_twist_kernel(r)


def test_rank_plus_nullity_is_width_on_rectangular_input():
    m = RationalMatrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    assert rank(m) + nullity(m) == 4
    assert rank(m) == 2


def test_solve_linear_consistent_and_inconsistent():
    sol = solve_linear([[1, 1], [1, -1]], [3, 1])
    assert sol == [2, 1]
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined: free variables pinned to zero
    assert solve_linear([[1, 1, 0]], [5]) == [5, 0, 0]


def test_solve_linear_against_its_definition():
    # x solves A x = b with 0 at every non-pivot column of A, or the answer
    # is None exactly when b raises the rank
    rng = random.Random(515)
    for trial in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_matrix(rng, max(nr, nc), -3, 3, rational=True).to_lists()
        rows = [row[:nc] for row in rows[:nr]]
        if trial % 4 == 0 and nr > 2:
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        if trial % 5 == 0:
            for row in rows:
                row[nc - 1] = 3 * row[0]
        if trial % 2:
            x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            rhs = RationalMatrix(rows).mat_vec(x0)
        else:
            rhs = [rng.randint(-5, 5) for _ in range(nr)]
        a = RationalMatrix(rows)
        sol = solve_linear(rows, rhs)
        aug = RationalMatrix([row + [b] for row, b in zip(rows, rhs)])
        if sol is None:
            assert naive_rank(a) < naive_rank(aug)
            continue
        assert naive_rank(a) == naive_rank(aug)
        assert a.mat_vec(sol) == list(rhs)
        prefix_ranks = [0] + [
            naive_rank(RationalMatrix([row[:k] for row in rows]))
            for k in range(1, nc + 1)
        ]
        for j in range(nc):
            assert prefix_ranks[j + 1] > prefix_ranks[j] or sol[j] == 0


# -- characteristic polynomial ----------------------------------------------


def test_charpoly_goldens():
    phi_sym3 = sym_quotient(3)
    assert charpoly(phi_sym3) == IntPolynomial([0, -7, 1])
    assert charpoly(RationalMatrix.identity(2)) == IntPolynomial([1, -2, 1])
    assert charpoly(phi_matrix(2)) == IntPolynomial([-2, 7, -6, 1])


def test_charpoly_factors_golden():
    p = charpoly(phi_matrix(2))
    assert divide_out(p, IntPolynomial([-1, 1]), 1) == IntPolynomial([2, -5, 1])


def test_charpoly_against_cofactor_expansion():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        assert charpoly(m) == cofactor_charpoly(m)


def test_charpoly_is_monic_of_full_degree():
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        m = random_matrix(rng, n)
        p = charpoly(m)
        assert p.degree() == n
        assert p.is_monic()


def test_charpoly_requires_square():
    with pytest.raises(NonSquareMatrixError):
        charpoly(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


def test_charpoly_clears_denominators():
    m = RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    # true characteristic polynomial is not integral here
    with pytest.raises(InexactDivisionError):
        charpoly(m)
    ok = RationalMatrix([[Fraction(4, 2), Fraction(1, 1)], [0, 3]])
    assert charpoly(ok) == IntPolynomial([6, -5, 1])


# -- minimal polynomial -----------------------------------------------------


def test_minpoly_goldens():
    assert minpoly(RationalMatrix.identity(7)) == IntPolynomial([-1, 1])
    phi_sym3 = sym_quotient(3)
    assert minpoly(phi_sym3) == IntPolynomial([0, -7, 1])
    # distinct eigenvalues 0, 1, 7 with 0 repeated: degree drops from 4 to 3
    p = minpoly(phi_matrix(3))
    assert p == IntPolynomial([0, 7, -8, 1])
    assert horner_at_matrix(p, phi_matrix(3)).is_zero()


def test_minpoly_detects_nontrivial_jordan_block():
    m = RationalMatrix([[1, 1], [0, 1]])
    assert minpoly(m) == IntPolynomial([1, -2, 1])


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        mp = minpoly(m)
        cp = charpoly(m)
        assert divide_out(cp, mp, 1) is not None  # raises if not divisible
        assert horner_at_matrix(mp, m).is_zero()
        assert mp.is_monic()


def _conjugate(rng, m: RationalMatrix) -> RationalMatrix:
    """E m E^-1 for a product E of elementary matrices I + t e_ij."""
    n = m.nrows
    for _ in range(rng.randint(0, 3)):
        if n == 1:
            break
        i, j = rng.sample(range(n), 2)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = t, -t
        m = RationalMatrix(e) @ m @ RationalMatrix(e_inv)
    return m


def _block_diag(blocks) -> RationalMatrix:
    n = sum(b.nrows for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        for row in b.rows:
            rows.append([0] * off + list(row) + [0] * (n - off - b.ncols))
        off += b.ncols
    return RationalMatrix(rows)


def _jordan(lam: int, k: int) -> RationalMatrix:
    return RationalMatrix(
        [[lam if i == j else int(j == i + 1) for j in range(k)] for i in range(k)]
    )


def _seeded_square_matrices():
    """Integer, rational, derogatory, Jordan, nilpotent and scalar matrices.

    The rational ones are conjugates of integer ones by rational elementary
    matrices, so their minimal polynomials stay integral.
    """
    rng = random.Random(8128)
    for trial in range(200):
        kind = trial % 6
        n = rng.randint(1, 5)
        if kind == 0:
            m = random_matrix(rng, n, -4, 4)
        elif kind == 1:
            m = _conjugate(rng, random_matrix(rng, n, -4, 4))
        elif kind == 2:
            b = random_matrix(rng, rng.randint(1, 2), -3, 3)
            c = RationalMatrix([[rng.randint(-2, 2)]])
            m = _conjugate(rng, _block_diag([b, b, c]))
        elif kind == 3:
            lam = rng.randint(-2, 2)
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            m = _conjugate(rng, _block_diag([_jordan(lam, k) for k in sizes]))
        elif kind == 4:
            upper = [[rng.randint(-3, 3) * (j > i) for j in range(n)] for i in range(n)]
            m = _conjugate(rng, RationalMatrix(upper))
        else:
            m = RationalMatrix.identity(n) * rng.randint(-3, 3)
        yield m


def test_minpoly_against_its_definition():
    # monic, annihilates A, and I, A, ..., A^(d-1) are independent
    mats = [b.matrix for r in range(21) for b in spectral_context(r).blocks]
    mats += list(_seeded_square_matrices())
    for m in mats:
        p = minpoly(m)
        assert p.is_monic()
        assert horner_at_matrix(p, m).is_zero()
        d = p.degree()
        power = RationalMatrix.identity(m.nrows)
        flat = []
        for _ in range(d):
            flat.append([x for row in power.rows for x in row])
            power = power @ m
        assert rank(RationalMatrix(flat)) == d


def test_minpoly_minimality_on_projector():
    # rank-1 projector: minpoly x^2 - x, charpoly x^2 (x - 1) for size 3
    m = RationalMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert minpoly(m) == IntPolynomial([0, -1, 1])
    assert charpoly(m) == IntPolynomial([0, 0, -1, 1])


# -- multiplicities, squarefreeness, exact division ---------------------------


def test_eigen_multiplicity_goldens():
    assert eigen_multiplicity(phi_matrix(3), 0) == (2, 2)
    assert eigen_multiplicity(RationalMatrix.identity(4), 1) == (4, 4)
    assert eigen_multiplicity(phi_matrix(2), 1) == (1, 1)
    assert eigen_multiplicity(phi_matrix(2), 5) == (0, 0)


def test_eigen_multiplicity_geometric_below_algebraic_for_jordan():
    m = RationalMatrix([[2, 1], [0, 2]])
    assert eigen_multiplicity(m, 2) == (1, 2)


def test_is_squarefree():
    assert is_squarefree(IntPolynomial([0, -7, 1]))
    assert not is_squarefree(IntPolynomial([1, -2, 1]))
    assert not is_squarefree(IntPolynomial([0, 0, 1]))
    assert is_squarefree(IntPolynomial([5]))
    with pytest.raises(ValueError):
        is_squarefree(IntPolynomial())


def test_minpoly_squarefree_for_transfer_matrices():
    for r in range(0, 21):
        assert is_squarefree(minpoly(phi_matrix(r))), r


def test_polynomial_gcd():
    p = IntPolynomial([-1, 0, 1])  # (x-1)(x+1)
    q = IntPolynomial([1, -2, 1])  # (x-1)^2
    assert polynomial_gcd(p, q) == IntPolynomial([-1, 1])
    assert polynomial_gcd(p, IntPolynomial([7])).degree() == 0
    # content handling
    a = IntPolynomial([2, 2]) * IntPolynomial([3])
    b = IntPolynomial([4, 4])
    assert polynomial_gcd(a, b) == IntPolynomial([2, 2])


def _random_poly(rng, deg, lo=-9, hi=9) -> IntPolynomial:
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    return IntPolynomial(coeffs + [rng.choice([c for c in range(lo, hi + 1) if c])])


def _seeded_gcd_pairs():
    """Pairs with a planted common factor: non-monic, negative leading
    coefficients, non-trivial content, repeated factors, constants, zero."""
    rng = random.Random(7919)
    for trial in range(240):
        kind = trial % 6
        g = _random_poly(rng, rng.randint(0, 4))
        if kind == 1:
            g = g * g * _random_poly(rng, 1)  # repeated factors
        elif kind == 2:
            g = g * rng.choice([-6, -2, 3, 10])  # content and sign
        u = _random_poly(rng, rng.randint(0, 5)) * rng.choice([1, -1, 2, -4])
        v = _random_poly(rng, rng.randint(0, 5)) * rng.choice([1, -3, 5])
        a, b = g * u, g * v
        if kind == 3:
            b = IntPolynomial([rng.choice([-12, -1, 1, 8])])  # a constant
        elif kind == 4:
            a = IntPolynomial() if trial % 12 == 4 else a * a  # zero or a square
        elif kind == 5:
            b = a.derivative() * rng.choice([1, -2])
        yield a, b


def _largest_primes_below_2_31(k: int) -> list:
    out = []
    n = 2**31 - 1
    while len(out) < k:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
        n -= 2
    return out


def _adversarial_prime_pairs():
    """Pairs that mislead the modular gcd on the first primes it tries."""
    p1, p2 = _largest_primes_below_2_31(2)
    x = IntPolynomial.x()
    g = x + IntPolynomial([p1 * p2])
    h = IntPolynomial([1, p1])  # 1 + p1*x is the constant 1 mod the first prime
    return [
        # the first prime is unlucky: its image is dropped for a smaller one
        (x * (x - IntPolynomial([1])), x * (x - IntPolynomial([1 + p1]))),
        (x - IntPolynomial([1]), x - IntPolynomial([1 + p1])),
        # the second prime is unlucky: its image is skipped
        (x * (x - IntPolynomial([p2])), x * x),
        # the lift reads x after both primes, so only exact division rejects it
        (g * (x + IntPolynomial([1])), g * (x + IntPolynomial([2]))),
        # the first prime divides both leading coefficients and must be passed over
        (h * (x + IntPolynomial([1])), h * (x + IntPolynomial([2]))),
    ]


def test_polynomial_gcd_against_prs_oracle():
    pairs = list(_seeded_gcd_pairs()) + _adversarial_prime_pairs()
    zero = IntPolynomial()
    pairs += [(zero, zero), (IntPolynomial([0, 0, 6]), zero)]
    big = IntPolynomial([3**90, -(2**101), 7**40 + 1])  # lifted over several primes
    pairs.append((big * IntPolynomial([5, 1]), big * IntPolynomial([-2, 3, 4])))
    degrees = set()
    for a, b in pairs:
        g = polynomial_gcd(a, b)
        assert g == prs_gcd(a, b) == polynomial_gcd(b, a), (a, b)
        degrees.add(g.degree())
    # the draws reach constant, zero and non-trivial gcds
    assert {-1, 0, 1, 2, 3}.issubset(degrees)


def test_polynomial_gcd_of_swap_block_charpolys():
    for r in range(41):
        for block in spectral_context(r).blocks:
            cp = block.charpoly
            assert polynomial_gcd(cp, cp.derivative()) == prs_gcd(cp, cp.derivative()), r


def test_divide_out_goldens():
    assert divide_out(IntPolynomial([0, -7, 1]), IntPolynomial.x(), 1) == (
        IntPolynomial([-7, 1])
    )
    p = IntPolynomial([3, 1, 4])
    assert divide_out(p, IntPolynomial([9, 9]), 0) == p
    assert divide_out(
        charpoly(phi_matrix(2)), IntPolynomial([-1, 1]), 1
    ) == IntPolynomial([2, -5, 1])


def test_divide_out_reports_contract_violation():
    with pytest.raises(InexactDivisionError):
        divide_out(IntPolynomial([1, 1]), IntPolynomial.x(), 1)
    with pytest.raises(InexactDivisionError):
        divide_out(IntPolynomial([0, -7, 1]), IntPolynomial.x(), 2)
    # divisible over Q, but the quotient 1/2 is not integral
    with pytest.raises(InexactDivisionError):
        divide_out(IntPolynomial([1, 1]), IntPolynomial([2, 2]), 1)


# -- matrix plumbing ----------------------------------------------------------


def test_matrix_algebra_basics():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert (a * 2).to_lists() == [[2, 4], [6, 8]]
    assert a @ RationalMatrix.identity(2) == a == RationalMatrix.identity(2) @ a
    assert (a @ a @ a).to_lists() == [[37, 54], [81, 118]]
    assert a.mat_vec([1, 1]) == [3, 7]
    # ints (True among them) pass through, and an integral Fraction is an int
    m = RationalMatrix([[True, 5, Fraction(4, 2), Fraction(1, 2)]])
    assert m.rows == ((True, 5, 2, Fraction(1, 2)),)
    assert [type(x) for x in m.rows[0]] == [bool, int, int, Fraction]
    with pytest.raises(TypeError):
        RationalMatrix([[1, 0.5]])


def test_polynomial_str_and_repr():
    assert str(IntPolynomial([0, -7, 1])) == "x^2 - 7*x"
    assert str(IntPolynomial([2])) == "2"
    assert str(IntPolynomial()) == "0"
    assert str(IntPolynomial([-1, 0, 1])) == "x^2 - 1"
