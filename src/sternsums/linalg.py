"""Exact linear algebra over the rationals.

Dense matrices with int/Fraction entries and integer-coefficient polynomials.
One fraction-free (Bareiss) elimination serves rank, kernels, linear solves
and minimal polynomials: a minimal polynomial is the first Krylov linear
dependence that elimination finds, with an annihilation certificate built
into the cyclic-vector loop.  Kernel vectors are back-substituted
fraction-free too, in integers scaled by a Bareiss pivot (Cramer's rule),
and only kernel_basis and solve_linear divide by it.  Characteristic
polynomials come from the division-free Samuelson-Berkowitz recursion, and
their images mod a prime from a Hessenberg reduction over GF(p) (for
spectra's multiplicity certificate).  Polynomial gcds come from Brown's
modular algorithm, certified by exact division.  No floating point
anywhere; the modular steps only propose or bound, and exact integer checks
decide.

verify takes none of the exact spectral routines: counts of eigenvectors
held against the charpoly mod p (its root powers and its gcd with its
derivative) pin every multiplicity it reports (see spectra).  Berkowitz
serves mine's annihilator; minpoly, nullity, eigen_multiplicity,
is_squarefree and kernel_basis are the tests' exact oracles of that
certificate.

All functions are pure; matrices and polynomials are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class NonSquareMatrixError(ValueError):
    """Operation is defined only for square matrices."""


class InexactDivisionError(ArithmeticError):
    """A division that was promised to be exact left a remainder.

    When raised from divide_out this signals an upstream multiplicity error,
    not a recoverable condition.
    """


def _normalize_entry(x: Rational) -> Rational:
    # int first: Fraction is an ABC subclass, so isinstance(5, Fraction) runs
    # the slow abc check on every integer entry
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact rational required, got {type(x).__name__}")


class RationalMatrix:
    """Dense matrix of exact rationals, immutable once built.

    Entries are Python ints where possible and Fraction otherwise; all
    arithmetic is exact.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        # tuple() of a list, not of a generator: CPython sizes a generator's
        # tuple by guess and resizes it, so the tuple is taken from one free
        # list and returned to another, and over many calls the free lists of
        # the other sizes fill up (about 4 MB across the sizes 1..20).
        data = tuple([tuple([_normalize_entry(x) for x in row]) for row in rows])
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows have unequal lengths")
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._require_same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._require_same_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, scalar: Rational) -> "RationalMatrix":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return RationalMatrix([[a * scalar for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        cols = list(zip(*other.rows))
        return RationalMatrix([[_dot(row, col) for col in cols] for row in self.rows])

    def mat_vec(self, vec: Sequence[Rational]) -> list:
        if len(vec) != self.ncols:
            raise ValueError("vector length differs from column count")
        return [_dot(row, vec) for row in self.rows]

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def to_lists(self) -> list:
        return [list(row) for row in self.rows]

    def _require_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"RationalMatrix({self.to_lists()!r})"


def _dot(a, b):
    return sum(map(mul, a, b))


def _poly_mul(a: Sequence, b: Sequence, size: int | None = None) -> list:
    """Product of two coefficient lists, cut to its first size terms."""
    full = len(a) + len(b) - 1
    size = full if size is None else min(size, full)
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i]):
                if y:
                    out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


def _as_int(c) -> int:
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        raise ValueError(f"coefficient {c} is not an integer")
    raise TypeError(f"integer coefficient required, got {type(c).__name__}")


class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored lowest degree first with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_as_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls([0, 1])

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(_poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# fraction-free elimination: rank, kernels and linear solves
# ---------------------------------------------------------------------------


def _integer_rows(rows: Sequence[Sequence[Rational]]) -> tuple[list, int]:
    """(integer rows of d * rows, d) for the least d that clears every entry.

    An int's denominator is 1.  A scalar keeps rank and right kernel, so the
    elimination routines drop d; charpoly and minpoly rescale by it.
    """
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _bareiss_echelon(rows: list) -> tuple[list, list]:
    """Fraction-free row echelon form of an integer matrix (in place).

    Returns (pivot_rows, pivot_cols).  Every division in the Bareiss update is
    checked to be remainder-free; a failure would indicate memory corruption
    or a bug, so it raises InexactDivisionError whatever the -O flag.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    prev = 1
    piv_cols = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        pivot = pivot_row[c]
        for i in range(r + 1, nr):
            row_i = rows[i]
            factor = row_i[c]
            for j in range(c + 1, nc):
                num = pivot * row_i[j] - factor * pivot_row[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InexactDivisionError(
                        "Bareiss step produced an inexact division"
                    )
                row_i[j] = q
            row_i[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], piv_cols


def rank(m: RationalMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    _, piv = _bareiss_echelon(_integer_rows(m.rows)[0])
    return len(piv)


def nullity(m: RationalMatrix) -> int:
    return m.ncols - rank(m)


def _kernel_vector(ech: list, piv_cols: list, nc: int, f: int) -> list:
    """Primitive integer kernel vector of an echelon form for the free column f.

    It spans the line of the canonical kernel vector: entry 1 at f, zeros at
    every other free column, and the pivot entries solved for.  That vector
    times the last Bareiss pivot d left of f is integral by Cramer's rule,
    because d is the minor on the pivot columns left of f.  So back
    substitution starts from w[f] = d and runs in integers, every division
    checked to be remainder-free; the result is divided by its content and
    signed positive at f.  Pivots right of f solve to zero, so their rows are
    skipped.
    """
    k = bisect_left(piv_cols, f)  # the pivots left of f
    w = [0] * nc
    w[f] = ech[k - 1][piv_cols[k - 1]] if k else 1
    for i in range(k - 1, -1, -1):
        p = piv_cols[i]
        # w is still zero at p and before it, and past f
        q, rem = divmod(-_dot(ech[i], w), ech[i][p])
        if rem:
            raise InexactDivisionError("back substitution produced an inexact division")
        w[p] = q
    g = math.gcd(*w)
    if w[f] < 0:
        g = -g
    return [x // g for x in w]


def _integer_kernel(m: RationalMatrix) -> list:
    """Integer basis of the right kernel, one _kernel_vector per free column.

    Each is the canonical vector of kernel_basis scaled by the lcm of its
    denominators, so its last nonzero entry is positive and at its column.
    """
    ech, piv_cols = _bareiss_echelon(_integer_rows(m.rows)[0])
    piv_set = set(piv_cols)
    return [
        tuple(_kernel_vector(ech, piv_cols, m.ncols, f))
        for f in range(m.ncols)
        if f not in piv_set
    ]


def kernel_basis(m: RationalMatrix) -> list:
    """Canonical basis of the right kernel.

    One vector per free column f, with entry 1 at f, zeros at the other free
    columns, and the pivot entries determined by back substitution.  This is
    the reduced-echelon kernel basis, so the output is deterministic
    regardless of pivoting order.  The back substitution is fraction-free:
    each vector is the integer one of _integer_kernel divided by its entry
    at f, which is its last nonzero entry.
    """
    out = []
    for v in _integer_kernel(m):
        lead = next(x for x in reversed(v) if x)
        out.append(tuple(Fraction(x, lead) for x in v))
    return out


def solve_linear(rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]):
    """Exact solution of an (over)determined linear system, or None.

    Fraction-free elimination of the augmented matrix [A | b]: the system is
    inconsistent exactly when the b column is a pivot, and otherwise the
    kernel vector w for that column solves A x = b as x = -w / w[b].  Free
    variables are set to zero, so the output is deterministic.
    """
    if not rows:
        return []
    nc = len(rows[0])
    ech, piv_cols = _bareiss_echelon(
        _integer_rows([[*row, b] for row, b in zip(rows, rhs)])[0]
    )
    if nc in piv_cols:
        return None
    w = _kernel_vector(ech, piv_cols, nc + 1, nc)
    return [Fraction(-x, w[nc]) for x in w[:nc]]


# ---------------------------------------------------------------------------
# characteristic polynomial (Samuelson-Berkowitz, division free)
# ---------------------------------------------------------------------------


def _require_square(m: RationalMatrix):
    if m.nrows != m.ncols:
        raise NonSquareMatrixError(f"square matrix required, got {m.nrows}x{m.ncols}")


def _berkowitz(rows: list) -> list:
    """Characteristic polynomial of an integer matrix, highest degree first."""
    n = len(rows)
    poly = [1, -rows[0][0]]
    for k in range(1, n):
        row_k = rows[k]
        sub = [rows[i][:k] for i in range(k)]
        vec = [rows[i][k] for i in range(k)]
        toep = [1, -row_k[k]]
        for step in range(k):
            toep.append(-_dot(row_k, vec))
            if step < k - 1:
                vec = [_dot(srow, vec) for srow in sub]
        poly = _poly_mul(toep, poly, k + 2)
    return poly


def _rescale_poly_coeffs(
    coeffs_low_first: Sequence[int], den: int, label: str
) -> list:
    """Map p(x) for d*M to the polynomial for M: coeff k scales by d**(k-deg)."""
    deg = len(coeffs_low_first) - 1
    out = []
    for k, c in enumerate(coeffs_low_first):
        power = deg - k
        q, rem = divmod(c, den**power)
        if rem:
            raise InexactDivisionError(
                f"{label} of this rational matrix has non-integer coefficients"
            )
        out.append(q)
    return out


def charpoly(m: RationalMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - m), exactly.

    Division-free Berkowitz recursion on an integer scaling of m.  Raises
    InexactDivisionError if the true characteristic polynomial is not
    integral (cannot happen for integer matrices).
    """
    _require_square(m)
    rows, den = _integer_rows(m.rows)
    coeffs = list(reversed(_berkowitz(rows)))
    if den != 1:
        coeffs = _rescale_poly_coeffs(coeffs, den, "characteristic polynomial")
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# minimal polynomial (Krylov)
# ---------------------------------------------------------------------------


def _poly_apply_to_unit(coeffs: Sequence[int], rows: list, i: int) -> list:
    """p(A) e_i over the integers, by Horner on vectors."""
    n = len(rows)
    w = [0] * n
    for c in reversed(coeffs):
        if any(w):
            w = [_dot(row, w) for row in rows]
        if c:
            w[i] += c
    return w


def _vector_minpoly(rows: list, v: list) -> list:
    """Monic minimal polynomial of the vector v under the integer matrix.

    The Krylov vectors v, Av, ..., A^n v are the columns of an n x (n+1)
    integer matrix.  Its first non-pivot column d is the degree, and the
    canonical kernel vector for d holds the monic coefficients, lowest
    degree first.
    """
    n = len(rows)
    krylov = [v]
    for _ in range(n):
        krylov.append([_dot(row, krylov[-1]) for row in rows])
    ech, piv_cols = _bareiss_echelon([list(col) for col in zip(*krylov)])
    # once A^d v depends on the vectors before it, so does every later one,
    # so the pivots are exactly the columns 0..d-1
    d = len(piv_cols)
    w = _kernel_vector(ech, piv_cols, n + 1, d)
    # w is primitive, so the monic w / w[d] is integral only if w[d] is 1
    if w[d] != 1:
        raise InexactDivisionError(
            "minimal polynomial of this rational matrix is not integral"
        )
    return w[: d + 1]


def minpoly(m: RationalMatrix) -> IntPolynomial:
    """Monic minimal polynomial, with the annihilation certificate built in.

    Runs the cyclic-vector construction over every basis vector: the minimal
    polynomial of p(A) e_i extends p to lcm(p, minpoly of e_i) exactly, and
    the loop terminates only once p(A) kills the whole basis, so the result
    annihilates the matrix by construction.
    """
    _require_square(m)
    n = m.nrows
    rows, den = _integer_rows(m.rows)
    p = IntPolynomial([1])
    for i in range(n):
        w = _poly_apply_to_unit(p.coeffs, rows, i)
        if any(w):
            p = p * IntPolynomial(_vector_minpoly(rows, w))
            if p.degree() == n:
                break
    if den == 1:
        return p
    return IntPolynomial(_rescale_poly_coeffs(p.coeffs, den, "minimal polynomial"))


# ---------------------------------------------------------------------------
# multiplicities, squarefreeness, exact division
# ---------------------------------------------------------------------------


def root_power(p: IntPolynomial, lam: Rational) -> int:
    """Exact power of (x - lam) dividing the nonconstant part of p.

    Repeated synthetic division: the Horner values of p at lam are the
    quotient's coefficients, and the last one is the remainder p(lam).  The
    zero polynomial counts as having no root.
    """
    return _root_power(p.coeffs, lam)


def _root_power(coeffs: Sequence, lam: Rational, prime: int = 0) -> int:
    """root_power of a coefficient list (lowest degree first) over Z, or over
    GF(prime) when a prime is given."""
    def step(acc, c):
        acc = acc * lam + c
        return acc % prime if prime else acc

    k = 0
    while len(coeffs) > 1:
        horner = list(accumulate(reversed(coeffs), step))
        if horner[-1]:
            break
        coeffs = horner[-2::-1]
        k += 1
    return k


def eigen_multiplicity(m: RationalMatrix, lam: Rational) -> tuple[int, int]:
    """(geometric, algebraic) multiplicity of the rational eigenvalue lam.

    Geometric multiplicity is the nullity of m - lam*I; algebraic is the exact
    power of (x - lam) in the characteristic polynomial.
    """
    _require_square(m)
    shifted = m - RationalMatrix.identity(m.nrows) * lam
    return nullity(shifted), root_power(charpoly(m), lam)


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list | None:
    """a / b over Z[x] for coefficient lists (lowest first, b nonzero), or None.

    Long division in which every quotient coefficient must be an exact integer
    quotient by b's leading coefficient, so None means that b does not divide
    a in Z[x].
    """
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[k + db], lb)
        if r:
            return None
        if f:
            quot[k] = f
            for i, c in enumerate(b):
                rem[k + i] -= f * c
    return None if any(rem) else quot


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5, 7: exact for odd 7 < n < 3215031751."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The primes that _primes_below_2_30 has found so far, descending.  Every
# walk reads them from here and extends the list by Miller-Rabin only past
# its end, so no prime is tested twice in a process.
_PRIMES: list = []


def _primes_below_2_30():
    """The primes below 2**30, descending: the moduli of every modular step."""
    # each is one 30-bit digit of a CPython int, so % p divides by one digit
    i = 0
    while True:
        if i == len(_PRIMES):
            n = _PRIMES[-1] - 2 if _PRIMES else 2**30 - 1
            while n > 7 and not _is_prime(n):
                n -= 2
            if n <= 7:
                return
            _PRIMES.append(n)
        yield _PRIMES[i]
        i += 1


def _crt_step(
    lifted: list, modulus: int, image: Sequence[int], prime: int
) -> tuple[list, int, list]:
    """One Chinese remaindering step of a modular lift (Brown).

    lifted holds residues mod modulus, and image residues of the same
    integers mod prime.  Returns the residues mod modulus * prime, that
    modulus, and the candidate: each residue's representative of least
    absolute value.
    """
    step = pow(modulus, -1, prime)
    lifted = [u + modulus * ((v - u) * step % prime) for u, v in zip(lifted, image)]
    modulus *= prime
    half = modulus // 2
    return lifted, modulus, [x - modulus if x > half else x for x in lifted]


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list:
    """Monic gcd over GF(p) of coefficient lists (lowest first), by Euclid."""
    a = [x % p for x in a]
    b = [x % p for x in b]
    for u in (a, b):
        while u and not u[-1]:
            u.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % p
            off = len(a) - 1 - db
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - f * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _charpoly_mod(rows: Sequence[Sequence[int]], p: int) -> list:
    """Characteristic polynomial of an integer matrix over GF(p), lowest
    degree first.

    Elimination by similarity transforms over GF(p) brings the matrix to
    upper Hessenberg form H: for each column c, a row swap and the matching
    column swap put a nonzero subdiagonal pivot at (c + 1, c), then
    row_i -= u row_(c+1) clears (i, c) below it and col_(c+1) += u col_i
    undoes that on the right.  The charpolys p_k of H's leading k x k minors
    follow p_(k+1) = (x - H[k][k]) p_k - sum over i = 1..k of
    H[k-i][k] H[k][k-1] ... H[k-i+1][k-i] p_(k-i) (H. Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 2.2.9).  Cubic in the
    size, on residues of one CPython digit for the primes of
    _primes_below_2_30.
    """
    h = [[x % p for x in row] for row in rows]
    n = len(h)
    for c in range(n - 2):
        k = c + 1
        piv = next((i for i in range(k, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = pow(h[k][c], -1, p)
        pivot_row = h[k][c:]  # zero left of c, as is every row below it
        cols, factors = [], []
        for i in range(k + 1, n):
            u = h[i][c] * inv % p
            if u:
                h[i][c:] = [(a - u * b) % p for a, b in zip(h[i][c:], pivot_row)]
                cols.append(i)
                factors.append(u)
        if cols:
            for row in h:
                row[k] = (row[k] + sum(map(mul, factors, [row[i] for i in cols]))) % p
    polys = [[1]]
    for k in range(n):
        new = [0, *polys[k]]
        for j, c in enumerate(polys[k]):
            new[j] -= h[k][k] * c
        chain = 1  # H[k][k-1] ... H[k-i+1][k-i]
        for i in range(1, k + 1):
            chain = chain * h[k - i + 1][k - i] % p
            if not chain:
                break
            coef = h[k - i][k] * chain % p
            if coef:
                for j, c in enumerate(polys[k - i]):
                    new[j] -= coef * c
        polys.append([x % p for x in new])
    return polys[n]


def polynomial_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Gcd over Z[x] by Brown's modular algorithm, certified by exact division.

    Normalized primitive with positive leading coefficient (times the gcd of
    the contents).  For a prime that divides neither leading coefficient,
    the gcd mod the prime has at least the degree of the true gcd; the images
    of the smallest degree seen, scaled to the gcd of the leading
    coefficients, are lifted by the Chinese remainder theorem.  The primitive
    part of each new lifted candidate is tried at once: if it divides both
    inputs exactly it is a common divisor of at least the true gcd's
    degree, hence the gcd.  No step is probabilistic (W. S. Brown, J. ACM 18,
    1971).
    """
    if p.is_zero() and q.is_zero():
        return IntPolynomial()
    if p.is_zero():
        return q.primitive() * q.content()
    if q.is_zero():
        return p.primitive() * p.content()
    c = math.gcd(p.content(), q.content())
    a = p.primitive().coeffs
    b = q.primitive().coeffs
    lc = math.gcd(a[-1], b[-1])
    size = None  # length of the images being lifted
    checked = None  # the last candidate tried
    for prime in _primes_below_2_30():
        if not a[-1] % prime or not b[-1] % prime:
            continue
        image = _gcd_mod(a, b, prime)
        if len(image) == 1:
            return IntPolynomial([c])
        if size is not None and len(image) > size:
            continue  # the prime divides a resultant: its image is too large
        if size is None or len(image) < size:
            size, modulus, lifted = len(image), 1, [0] * len(image)
        lifted, modulus, candidate = _crt_step(
            lifted, modulus, [v * lc for v in image], prime
        )
        if candidate == checked:
            continue  # refused already
        checked = candidate
        g = IntPolynomial(candidate).primitive()
        if (
            _exact_quotient(a, g.coeffs) is not None
            and _exact_quotient(b, g.coeffs) is not None
        ):
            return g * c
    raise ArithmeticError("polynomial_gcd ran out of primes below 2**30")


def is_squarefree(p: IntPolynomial) -> bool:
    """True iff gcd(p, p') is constant."""
    if p.is_zero():
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    if p.degree() == 0:
        return True
    return polynomial_gcd(p, p.derivative()).degree() == 0


def divide_out(p: IntPolynomial, q: IntPolynomial, k: int) -> IntPolynomial:
    """p / q**k with an exactness check at every step.

    An inexact division raises InexactDivisionError: it means the caller's
    multiplicity bookkeeping is wrong, never that rounding is wanted.
    """
    if k < 0:
        raise ValueError("negative powers cannot be divided out")
    if k and q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    out = p.coeffs
    for _ in range(k):
        out = _exact_quotient(out, q.coeffs)
        if out is None:
            raise InexactDivisionError(f"({p}) is not divisible by ({q})^{k} in Z[x]")
    return IntPolynomial(out)
