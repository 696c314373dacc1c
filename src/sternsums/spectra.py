"""Eigenvalue-multiplicity predictions and their exact verification.

The predicted multiplicities of the transfer matrix (and its symmetric
quotient) at the eigenvalues 0 and +-1 are periodic-plus-linear functions of
the degree r, written here as PeriodicFn values.  The bracket convention:
a function [a_1, ..., a_p] restricted to one parity class of r has period
2p, with a_1 at r == 0 (mod 2p) on the even class and a_1 at r == 1 (mod 2p)
on the odd class.

Verification is exact, and rests on certificates alone: where one is
refused, spectral_context raises ArithmeticError naming the degree and
the witness, and `sternsums verify` exits 1.  Parts of the twist halves (see
below) lie in eigenspaces of the transfer matrix once
check_annihilation_identities has passed: it kills W for odd r, and acts
by -1 on X n Y+ and by +1 on X n Y- for even r.  Their dimensions bound
each block's geometric multiplicities from below.  The characteristic
polynomial cp_p of the block mod the prime 2^30 - 35 bounds the algebraic
ones from above, as cp is monic over the integers, and bounds
deg gcd(cp, cp') too.  Where the two bounds meet at every reported
eigenvalue, and the repeated roots of cp_p are those eigenvalues alone,
each multiplicity is pinned as one count, both geometric and algebraic,
and the block is diagonalizable with a squarefree minimal polynomial (see
_certify_block).  So no exact characteristic polynomial, nullity or
minimal polynomial is computed; on every degree up to VERIFY_MAX_DEGREE
the bounds meet.  A report that verify_single returns can then fail only
where a pinned count, a dimension or a residue count misses its
prediction, or where the integer symmetry identity
a!(r-a)! M[a][b] == b!(r-b)! M[b][a] fails.

The spectral work runs on two blocks of about half the size of the transfer
matrix.  The swap J: f(x, y) -> f(y, x) commutes with it, because
J sigma J = tau, so the symmetric and the antisymmetric forms are both
invariant and the transfer matrix acts on each.  The symmetric block is its
matrix on the quotient by the antisymmetric forms (sym_quotient: the
quotient operator whose multiplicities are predicted as well), the
antisymmetric block its matrix on the quotient by the symmetric forms
(anti_quotient).  So the characteristic polynomial of the transfer matrix is
the product of the blocks' ones, its minimal polynomial is the lcm of
theirs (squarefree iff both are), and each of its multiplicities is the sum
of the blocks' multiplicities.  The split is certified, not assumed:
spectral_context checks phi[r-a][r-b] == phi[a][b] entrywise, which is
J phi J == phi, and raises ArithmeticError naming the degree when it fails.
verify_single builds that context once per degree, and every check reads
phi, the blocks, their multiplicities and the twist kernel from it.  As
J rho J = rho^-1 for rho = RHO_TWIST, J maps the twist kernel onto itself,
so it is taken as its symmetric and antisymmetric halves, in the blocks'
own coordinates: the fold of sign s (forms._swap_fold) is injective on the
half of sign s and kills the other.  No elimination over Q computes them:
the twist t has t^3 = (-1)^r, so the twist kernel is the image of the
complementary factor of t^3 - (-1)^r, and each half is spanned by the
folded columns of that image.  Their rank mod p, and that of the folded
columns of the kernel's own factor, can only fall short of the exact ones,
which sum to the half's width.  So two echelons mod p, one for the image
and one for the factor, each draw from their own list of candidate
columns, those expected to raise that echelon's rank first, until the two
ranks sum to the width: then both are exact, and the image columns kept
are an exact basis (see _image_half).  Where both lists run out first,
spectral_context raises.  On a form of swap sign s and even degree, the
quarter turn f(x, y) -> f(y, -x) acts on entry a as s (-1)^a, which is
s (-1)^i on both entries r - i and i of class i, so every dimension that
involves its eigenspaces Y+- is a rank of one parity of a half's entries,
and the annihilation identities are checked by applying each block to its
half as it stands.

A composition subtlety drives the eigenspace computations.  With row-vector
substitution the operators compose covariantly, so the operator that the
transfer matrix factors through is tau^-1 @ sigma (RHO_TWIST), not
sigma @ tau^-1: the transfer matrix equals the tau-substitution applied
after (RHO_TWIST substitution + identity).  RHO_TWIST is conjugate to RHO,
so every dimension formula is unchanged, but the annihilation identities
hold for RHO_TWIST's eigenspaces and are stated that way here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .forms import (
    _swap_fold,
    anti_quotient,
    phi_matrix,
    sym_dimension,
    sym_quotient,
    twist_columns,
)
from .linalg import (
    RationalMatrix,
    _charpoly_mod,
    _gcd_mod,
    _integer_rows,
    _normalize_entry,
    _primes_below_2_30,
    _root_power,
    rank,
)

Rational = Union[int, Fraction]

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class PeriodicFn:
    """linear_slope * r plus a parity-restricted periodic table of values.

    values = (a_1, ..., a_p) repeats with period 2p over the parity class;
    see the module docstring for where a_1 sits.
    """

    values: tuple
    parity: str
    linear_slope: Fraction = Fraction(0)

    def __post_init__(self):
        if not self.values:
            raise ValueError("periodic part needs at least one value")
        if self.parity not in (ODD, EVEN):
            raise ValueError(f"parity must be '{ODD}' or '{EVEN}'")


def periodic_eval(fn: PeriodicFn, r: int) -> Rational:
    """Evaluate at a degree of the matching parity; exact rational result."""
    if r % 2 != (1 if fn.parity == ODD else 0):
        raise ValueError(f"degree {r} does not lie in the {fn.parity} class")
    p = len(fn.values)
    idx = ((r - 1) // 2) % p if fn.parity == ODD else (r // 2) % p
    val = fn.linear_slope * r + fn.values[idx]
    return _normalize_entry(val)


def _pf(slope, values, parity) -> PeriodicFn:
    return PeriodicFn(
        tuple(Fraction(v) for v in values), parity, Fraction(slope)
    )


F = Fraction

# Multiplicity lower bounds (observed to be equalities on the swept range).
MULT_PHI_ZERO = _pf(F(1, 3), [F(-1, 3), 1, F(1, 3)], ODD)
MULT_PHI_SYM_ZERO = _pf(F(1, 6), [F(-1, 6), F(1, 2), F(1, 6)], ODD)
MULT_PHI_PLUS = _pf(F(1, 6), [-1, F(2, 3), F(1, 3), 0, F(-1, 3), F(4, 3)], EVEN)
MULT_PHI_MINUS = _pf(F(1, 6), [0, F(-1, 3), F(4, 3), -1, F(2, 3), F(1, 3)], EVEN)
MULT_PHI_SYM_PLUS = _pf(
    F(1, 12), [-1, F(-1, 6), F(-1, 3), F(-1, 2), F(-2, 3), F(1, 6)], EVEN
)
MULT_PHI_SYM_MINUS = _pf(
    F(1, 12), [0, F(-1, 6), F(2, 3), F(-1, 2), F(1, 3), F(1, 6)], EVEN
)
MULT_PHI_PM_SUM = _pf(F(1, 3), [-1, F(1, 3), F(5, 3)], EVEN)
MULT_PHI_SYM_PM_SUM = _pf(F(1, 6), [-1, F(-1, 3), F(1, 3)], EVEN)

# Eigenspace dimensions for even degree.
DIM_X = _pf(F(2, 3), [0, F(2, 3), F(4, 3)], EVEN)
DIM_Y_PLUS = _pf(F(1, 2), [1, 0], EVEN)
DIM_Y_MINUS = _pf(F(1, 2), [0, 1], EVEN)
DIM_X_SYM = _pf(F(1, 3), [0, F(1, 3), F(2, 3)], EVEN)
DIM_Y_PLUS_SYM = _pf(F(1, 4), [1, F(1, 2)], EVEN)
DIM_Y_MINUS_SYM = _pf(F(1, 4), [0, F(1, 2)], EVEN)
# Intersection lower bounds by inclusion-exclusion; the transfer matrix acts
# by -1 on X n Y+ and by +1 on X n Y-, so these pair with the bounds above.
DIM_X_CAP_Y_PLUS = MULT_PHI_MINUS
DIM_X_CAP_Y_MINUS = MULT_PHI_PLUS
DIM_X_CAP_Y_PLUS_SYM = MULT_PHI_SYM_MINUS
DIM_X_CAP_Y_MINUS_SYM = MULT_PHI_SYM_PLUS

# Counts for odd degree (the minus-one eigenspace of the twist substitution).
COUNT_W = MULT_PHI_ZERO
COUNT_W_SYM = MULT_PHI_SYM_ZERO

# Recurrence-length bounds.
LENGTH_BOUND_ODD = _pf(F(1, 3), [F(2, 3), 0, F(1, 3)], ODD)
LENGTH_BOUND_EVEN_HOMOGENEOUS = _pf(F(1, 3), [4, F(10, 3), F(8, 3)], EVEN)
LENGTH_BOUND_EVEN_AFFINE_ALT = _pf(F(1, 3), [2, F(4, 3), F(2, 3)], EVEN)


def _dim_value(fn: PeriodicFn, r: int) -> int:
    """Evaluate a dimension or length formula; must be an integer >= 0."""
    v = periodic_eval(fn, r)
    if not isinstance(v, int) or v < 0:
        raise ValueError(f"dimension or length formula produced {v} at r={r}")
    return v


def predicted_bounds(r: int) -> dict:
    """Predicted multiplicities at the relevant eigenvalues for degree r.

    Odd r: eigenvalue 0 on both operators.  Even r: eigenvalues +-1 on both,
    plus the two summed bounds.  All values are nonnegative integers.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    if r % 2:
        return {
            "m_phi_0": _dim_value(MULT_PHI_ZERO, r),
            "m_phi_sym_0": _dim_value(MULT_PHI_SYM_ZERO, r),
        }
    return {
        "m_phi_plus1": _dim_value(MULT_PHI_PLUS, r),
        "m_phi_minus1": _dim_value(MULT_PHI_MINUS, r),
        "m_phi_sym_plus1": _dim_value(MULT_PHI_SYM_PLUS, r),
        "m_phi_sym_minus1": _dim_value(MULT_PHI_SYM_MINUS, r),
        "m_phi_pm_sum": _dim_value(MULT_PHI_PM_SUM, r),
        "m_phi_sym_pm_sum": _dim_value(MULT_PHI_SYM_PM_SUM, r),
    }


# The prime of the multiplicity certificate: the first of linalg's walk,
# 2^30 - 35, so a charpoly mod it has one-digit coefficients, and above
# every block size, so each root of cp_p adds its multiplicity less one to
# deg gcd(cp_p, cp_p').
_CERTIFICATE_PRIME = next(_primes_below_2_30())


@dataclass(frozen=True)
class SwapBlock:
    """The transfer matrix on one swap quotient, and its multiplicities.

    multiplicities maps each eigenvalue that verify reports on this block
    (an integer) to the number of linearly independent eigenvectors that
    the twist halves hold for it; spectral_context certifies that this
    number is both its geometric and its algebraic multiplicity, and that
    the block's minimal polynomial is squarefree (see _certify_block).
    """

    matrix: RationalMatrix
    multiplicities: dict


@dataclass(frozen=True)
class SpectralContext:
    """What the checks for one degree share; built once by spectral_context.

    sym and anti are the transfer matrix's blocks on the two swap quotients
    (anti is None for r = 0, which has no antisymmetric form).  twist_sym and
    twist_anti are integer bases of the swap halves of the kernel of
    twist + 1 for odd r and of twist^2 + twist + 1 for even r (the space W,
    respectively X), in the blocks' own coordinates: a vector w of the half
    of sign s = +-1 is forms._swap_fold(v, s) for a kernel form v of swap
    sign s, so w[i] = 2 v[r-i] on each class i < r/2, and the middle class
    of even r, which only s = +1 has, holds v[r/2] once.  Each half comes
    from the image of the complementary factor, t^2 - t + 1 for odd r and
    t - 1 for even r: its folded columns, fewest bits first, pinned mod
    _CERTIFICATE_PRIME by the sandwich of _image_half.

    Each block's multiplicities are the dimensions of the parts of its half
    on which the transfer matrix acts as lam once the annihilation
    identities hold: the whole half at 0 for odd r; for even r, X_s n Y- at
    +1 and X_s n Y+ at -1, the parts of the half of sign s on which the
    quarter turn acts as -1 and +1 (see eigenspace_dims).  A half is its
    forms folded one to one into its block's coordinates, so each count
    bounds that block's geometric multiplicity from below, and the
    certificate pins it as the algebraic one too.
    annihilation is check_annihilation_identities on this context, computed
    once; spectral_context has certified that every identity in it holds.
    """

    r: int
    phi: RationalMatrix
    sym: SwapBlock
    anti: SwapBlock | None
    twist_sym: tuple
    twist_anti: tuple

    @property
    def blocks(self) -> tuple:
        return (self.sym,) if self.anti is None else (self.sym, self.anti)

    @cached_property
    def annihilation(self) -> dict:
        return check_annihilation_identities(self)


def _certify_block(r: int, name: str, block: SwapBlock) -> None:
    """Pin block.multiplicities, or raise ArithmeticError naming r, the block
    and the witness.

    With cp the charpoly of d times the block, for the least d that makes it
    integral, and cp_p its image mod p = _CERTIFICATE_PRIME: cp is monic in
    Z[x], so a root of cp of multiplicity k is one of cp_p of multiplicity
    at least k, and deg gcd(cp, cp') is at most deg gcd(cp_p, cp_p').  So
    with k eigenvectors at lam, k <= geo(lam) <= alg(lam) <= mult_p(d lam),
    and where the two ends meet, geo = alg = k.  If they meet at every lam,
    and deg gcd(cp_p, cp_p') is the sum of k - 1 over those lam with k >= 1,
    then, as p exceeds every multiplicity, cp_p has no other repeated root
    (0 and +-1 included), and as deg gcd(cp, cp') is at most that sum, nor
    has cp: the only repeated roots of cp are lams with geo = alg, so the
    block is diagonalizable and its minimal polynomial squarefree.  Every
    step is exact; a failed one (an unlucky prime, or a real defect)
    raises.
    """
    rows, d = _integer_rows(block.matrix.rows)
    p = _CERTIFICATE_PRIME
    cp = _charpoly_mod(rows, p)
    for lam, k in block.multiplicities.items():
        mult = _root_power(cp, lam * d, p)
        if mult != k:
            raise ArithmeticError(
                f"r={r}: multiplicity certificate refused on the {name} block: "
                f"{k} eigenvectors at {lam}, but multiplicity {mult} mod p"
            )
    repeated = len(_gcd_mod(cp, [i * c for i, c in enumerate(cp)][1:], p)) - 1
    pinned = sum(k - 1 for k in block.multiplicities.values() if k)
    if repeated != pinned:
        raise ArithmeticError(
            f"r={r}: multiplicity certificate refused on the {name} block: "
            f"deg gcd(cp, cp') mod p is {repeated}, where its pinned eigenvalues "
            f"account for {pinned}"
        )


def _extend_echelon(echelon: list, vec: list, p: int) -> bool:
    """Reduce vec mod p by echelon, whose entries (pivot, tail) are rows mod
    p that are zero left of pivot, 1 at it and zero at every earlier pivot,
    with tail the row from pivot on; append what is left, if anything, and
    say whether it was."""
    v = [x % p for x in vec]
    for piv, tail in echelon:
        c = v[piv]
        if c:
            v[piv:] = [(x - c * y) % p for x, y in zip(v[piv:], tail)]
    piv = next((i for i, x in enumerate(v) if x), None)
    if piv is None:
        return False
    inv = pow(v[piv], -1, p)
    echelon.append((piv, [x * inv % p for x in v[piv:]]))
    return True


def _candidates(r: int, sign: int, order: list) -> tuple:
    """The image's and the factor's candidate columns for the half of sign s:
    each list holds every column b of order, those expected to raise that
    echelon's rank mod p first, then the others, each part in order.

    At even r the image t - 1 grows the half of sign +1 on odd b and the
    factor t^2 + t + 1 on even b, and the half of sign -1 the other way
    round; b = r - 1 raises both, and one of the two reaches it only in
    its fallback.  At odd r the image q = t^2 - t + 1 commutes with the
    swap J, as J t J = t^-1 = -t^2, so its columns b and r - b fold to +-
    each other, and it prefers b < r/2; the factor prefers every column.
    The parity pattern is observed, not proven: from r = 5 up to the verify
    cap neither list reaches its fallback.
    """
    if r % 2:
        preferred = (lambda b: 2 * b < r, lambda b: True)
    else:
        grows = (sign + 1) // 2  # the parity of b on which the image grows
        preferred = (lambda b: b % 2 == grows, lambda b: b % 2 != grows)
    return tuple(
        sorted(order, key=lambda b, pref=pref: not pref(b)) for pref in preferred
    )


def _image_half(image: list, factor: list, sign: int) -> tuple:
    """The half of sign s of im(image) = ker(factor), from their columns.

    image and factor are the columns of two coprime polynomials in the
    twist t whose product vanishes at t (see spectral_context), so the forms
    are the direct sum of their kernels, im image = ker factor and
    im factor = ker image.  The swap maps each of these onto itself, so the
    forms of sign s, of dimension width (the number of classes of sign s),
    split the same way, and the parts of sign s of the two images are
    spanned by the folds _swap_fold(u, s) of their columns u, as the fold
    of sign s kills the forms of sign -s.  So their ranks over Q sum to
    width.  A rank mod p = _CERTIFICATE_PRIME can only be lower, so the
    folds go into two echelons mod p, each drawing from its own candidate
    list (see _candidates), until the ranks sum to width: then both are
    exact, and the image's folds that raised its rank, being independent
    mod p, are independent over Q and as many as the half is wide.  They
    are returned divided by their content, with the last nonzero entry
    positive.  A fold that raises nothing gives the turn to the other list,
    so a full echelon takes no more columns.  Every column is on both
    lists, and soundness rests on the ranks alone, not on their order;
    where the ranks do not sum to width once both lists are used up,
    raises ArithmeticError naming r and the sign.
    """
    r = len(image) - 1
    width = sym_dimension(r) if sign == 1 else (r + 1) // 2
    p = _CERTIFICATE_PRIME
    # the smallest columns first: the exact ranks of _vanishing_dim and the
    # annihilation identities run on the basis kept
    order = sorted(range(r + 1), key=lambda b: max(map(abs, image[b])))
    columns, queues = (image, factor), [iter(c) for c in _candidates(r, sign, order)]
    echelons, kept = ([], []), []
    live = [0, 1]  # the lists not used up, the one whose turn it is first
    while live and len(echelons[0]) + len(echelons[1]) < width:
        turn = live[0]
        b = next(queues[turn], None)
        if b is None:
            live.pop(0)
            continue
        w = _swap_fold(columns[turn][b], sign)
        if not _extend_echelon(echelons[turn], w, p):
            live.append(live.pop(0))
        elif turn == 0:
            kept.append(w)
    image_echelon, factor_echelon = echelons
    if len(image_echelon) + len(factor_echelon) != width:
        raise ArithmeticError(
            f"r={r}: twist half of sign {sign:+d} refused: ranks "
            f"{len(image_echelon)} + {len(factor_echelon)} mod p of its image and "
            f"factor columns fall short of its width {width}"
        )
    basis = []
    for w in kept:
        g = math.gcd(*w)
        if next(x for x in reversed(w) if x) < 0:
            g = -g
        basis.append(tuple(x // g for x in w))
    return tuple(basis)


def spectral_context(r: int) -> SpectralContext:
    """The per-degree context, every part of it certified.

    Raises ArithmeticError naming r and the witness where a certificate
    refuses: phi[r-a][r-b] != phi[a][b] at some entry, so that the block
    split would be unsound; a twist half whose ranks mod p do not close
    (see _image_half); an annihilation identity that fails, so that the
    halves' counts bound nothing; or a block whose counts the charpoly mod
    p does not pin (see _certify_block).  At r = 0 the halves are empty and
    the identities vacuous.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    phi = phi_matrix(r)
    rows = phi.rows
    n = r + 1
    witness = next(
        ((a, b) for a in range(n) for b in range(n) if rows[r - a][r - b] != rows[a][b]),
        None,
    )
    if witness is not None:
        a, b = witness
        raise ArithmeticError(
            f"r={r}: phi does not commute with the swap f(x, y) -> f(y, x): "
            f"phi[{r - a}][{r - b}] = {rows[r - a][r - b]} "
            f"but phi[{a}][{b}] = {rows[a][b]}"
        )
    # t^3 = e for e = (-1)^r, as RHO_TWIST^3 = -I, and
    # x^3 - e = (x - e)(x^2 + e x + 1): W = ker(t + 1) = im(t^2 - t + 1) for
    # odd r, X = ker(t^2 + t + 1) = im(t - 1) for even r
    t, t2 = twist_columns(r)
    e = -1 if r % 2 else 1
    linear = [[x - e * (a == b) for a, x in enumerate(c)] for b, c in enumerate(t)]
    quadratic = [
        [y + e * x + (a == b) for a, (x, y) in enumerate(zip(c, c2))]
        for b, (c, c2) in enumerate(zip(t, t2))
    ]
    factor, image = (linear, quadratic) if r % 2 else (quadratic, linear)
    twist_sym, twist_anti = (_image_half(image, factor, sign) for sign in (1, -1))
    if r % 2:
        sym_counts, anti_counts = {0: len(twist_sym)}, {0: len(twist_anti)}
    else:
        # on the half of sign s, the quarter turn acts on class i as s (-1)^i
        sym_counts = {1: _vanishing_dim(twist_sym, 0), -1: _vanishing_dim(twist_sym, 1)}
        anti_counts = {1: _vanishing_dim(twist_anti, 1), -1: _vanishing_dim(twist_anti, 0)}
    ctx = SpectralContext(
        r=r,
        phi=phi,
        sym=SwapBlock(sym_quotient(r, phi), sym_counts),
        anti=SwapBlock(anti_quotient(r, phi), anti_counts) if r else None,
        twist_sym=twist_sym,
        twist_anti=twist_anti,
    )
    failed = [key for key, holds in ctx.annihilation.items() if holds is False]
    if failed:
        raise ArithmeticError(
            f"r={r}: annihilation identity {', '.join(failed)} fails on the twist halves"
        )
    for name, block in zip(("sym", "anti"), ctx.blocks):
        _certify_block(r, name, block)
    return ctx


def _vanishing_dim(basis: tuple, parity: int) -> int:
    """Dimension of the part of span(basis) whose entries of this parity vanish."""
    rows = [w[parity::2] for w in basis]
    return len(basis) - (rank(RationalMatrix(rows)) if rows and rows[0] else 0)


def eigenspace_dims(ctx: SpectralContext) -> dict:
    """Formula and computed dimensions of X, Y+-, their quotient images, and
    the pairwise intersections, for even degree.

    X is the kernel of twist^2 + twist + 1 for the twist substitution, Y+-
    are the +-1 eigenspaces of the quarter-turn substitution, and the _sym
    entries are dimensions of the images under the symmetric fold.  Each
    entry carries the formula (or inclusion-exclusion bound) next to the
    exactly computed value.  The degree is ctx.r; with h = r/2:

    - Y+- are spanned by e_b +- (-1)^b e_(r-b) for b < h, and e_h lies in
      Y+ for even h, in Y- for odd h.  Their images are spanned by the even
      and the odd classes 0..h of the quotient, respectively.
    - The fold maps X_sym onto fold X one to one, and X_sym n Y+-
      onto fold X n fold Y+-.  The swap commutes with the quarter turn, so
      X n Y+- is (X_sym n Y+-) + (X_anti n Y+-).  On the half of sign s,
      Y+ is where the classes i with s (-1)^i = -1 vanish, and Y- where
      the others do; as r is even, (-1)^i is also (-1)^(r-i).  These are
      the ranks behind the blocks' multiplicities, which key X_s n Y+ by -1
      and X_s n Y- by +1.
    """
    r = ctx.r
    if r < 2 or r % 2:
        raise ValueError("even degree at least 2 required")
    half = r // 2
    sym, anti = ctx.twist_sym, ctx.twist_anti
    caps_sym, caps_anti = ctx.sym.multiplicities, ctx.anti.multiplicities

    def formula(fn, computed):
        return {"formula": _dim_value(fn, r), "computed": computed}

    def bound(fn, computed):
        return {"bound": periodic_eval(fn, r), "computed": computed}

    return {
        "dim_X": formula(DIM_X, len(sym) + len(anti)),
        "dim_Y_plus": formula(DIM_Y_PLUS, half + 1 - half % 2),
        "dim_Y_minus": formula(DIM_Y_MINUS, half + half % 2),
        "dim_X_sym": formula(DIM_X_SYM, len(sym)),
        "dim_Y_plus_sym": formula(DIM_Y_PLUS_SYM, half // 2 + 1),
        "dim_Y_minus_sym": formula(DIM_Y_MINUS_SYM, (half + 1) // 2),
        "dim_X_cap_Y_plus": bound(DIM_X_CAP_Y_PLUS, caps_sym[-1] + caps_anti[-1]),
        "dim_X_cap_Y_minus": bound(DIM_X_CAP_Y_MINUS, caps_sym[1] + caps_anti[1]),
        "dim_X_cap_Y_plus_sym": bound(DIM_X_CAP_Y_PLUS_SYM, caps_sym[-1]),
        "dim_X_cap_Y_minus_sym": bound(DIM_X_CAP_Y_MINUS_SYM, caps_sym[1]),
    }


def odd_case_dims(ctx: SpectralContext) -> dict:
    """The report's dim_W and dim_W_sym entries, for odd degree.

    Counts x powers a in 0..r with 2a == r + 3 (mod 6), plain and modulo the
    pairing a ~ r - a, and reads off the minus-one eigenspace W of the twist
    substitution and its image in the quotient, which is as large as the
    symmetric half W_sym.  Each entry puts the formula and the residue count
    next to the computed dimension; verify_single reports a mismatch as a
    failed check.  The degree is ctx.r.
    """
    r = ctx.r
    if r % 2 == 0:
        raise ValueError("odd degree required")
    hits = [a for a in range(r + 1) if (2 * a - (r + 3)) % 6 == 0]
    paired = {frozenset((a, r - a)) for a in hits}
    return {
        "dim_W": {
            "formula": _dim_value(COUNT_W, r),
            "computed": len(ctx.twist_sym) + len(ctx.twist_anti),
            "residue_count": len(hits),
        },
        "dim_W_sym": {
            "formula": _dim_value(COUNT_W_SYM, r),
            "computed": len(ctx.twist_sym),
            "residue_count": len(paired),
        },
    }


def check_annihilation_identities(ctx: SpectralContext) -> dict:
    """Structural identities behind the multiplicity bounds.

    Odd r: the transfer matrix kills every kernel vector of (twist + 1).
    Even r: (transfer + quarter-turn) kills every kernel vector of
    twist^2 + twist + 1.  Both are checked on the swap blocks: a vector w of
    the half of sign s is the fold of sign s of a form v of swap sign s, phi v
    has sign s too (phi commutes with the swap, as spectral_context
    certifies), and the fold of sign s is one to one on such forms, with
    fold(phi v) = block_s w.  So each block is applied to its half vectors
    as they stand, and the quarter turn multiplies class i of w by
    s (-1)^i.  The check is vacuously true when the eigenspace is zero, as
    at r = 0.  The degree is ctx.r.
    """
    halves = [
        (sign, block.matrix, w)
        for sign, block, basis in ((1, ctx.sym, ctx.twist_sym), (-1, ctx.anti, ctx.twist_anti))
        for w in basis
    ]
    if ctx.r % 2:
        ok = all(not any(block.mat_vec(w)) for _, block, w in halves)
        return {"phi_kills_W": ok, "space_dim": len(halves)}
    ok = all(
        not any(
            p + (-sign if i % 2 else sign) * x
            for i, (p, x) in enumerate(zip(block.mat_vec(w), w))
        )
        for sign, block, w in halves
    )
    return {"phi_plus_iota_kills_X": ok, "space_dim": len(halves)}


def check_diagonalizability(ctx: SpectralContext) -> bool:
    """The symmetry identity a!(r-a)! M[a][b] == b!(r-b)! M[b][a] for every
    entry of the transfer matrix, for degree ctx.r.

    It is the integer form of conjugating by the diagonal of square roots of
    k!(r-k)!, which makes the transfer matrix symmetric.  The other
    diagonalizability witness, squarefree minimal polynomials of both swap
    blocks, is the certificate that spectral_context ran when it built ctx
    (see _certify_block); it raises where that fails, so no report needs it.
    """
    r = ctx.r
    rows = ctx.phi.rows
    fact = [math.factorial(k) for k in range(r + 1)]
    weights = [fact[a] * fact[r - a] for a in range(r + 1)]
    return all(
        weights[a] * rows[a][b] == weights[b] * rows[b][a]
        for a in range(r + 1)
        for b in range(a + 1, r + 1)
    )


@dataclass(frozen=True)
class MultiplicityCheck:
    """A predicted multiplicity and the count the certificate pinned, which
    is both the geometric and the algebraic multiplicity."""

    predicted: int
    count: int

    @property
    def bound_holds(self) -> bool:
        return self.count >= self.predicted

    @property
    def equal(self) -> bool:
        return self.count == self.predicted

    def to_json_dict(self) -> dict:
        return {
            "predicted": self.predicted,
            "geometric": self.count,
            "algebraic": self.count,
            "bound_holds": self.bound_holds,
            "equal": self.equal,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Everything checked for one degree r that a report can fail.

    The annihilation identities and the squarefree minimal polynomials are
    certified when the spectral context is built, which raises where one
    fails; the report carries the identities' values, and its JSON writes
    minpoly_squarefree as the true that the certificate established.
    """

    r: int
    parity: str
    multiplicities: dict
    sum_checks: dict
    symmetry_identity: bool
    dims: dict
    annihilation: dict

    @property
    def bounds_hold(self) -> bool:
        mults = all(m.bound_holds for m in self.multiplicities.values())
        sums = all(c["computed"] >= c["predicted"] for c in self.sum_checks.values())
        dims_ok = True
        for entry in self.dims.values():
            for key in ("formula", "residue_count"):
                target = entry.get(key)
                if target is not None and entry["computed"] != target:
                    dims_ok = False
            bound = entry.get("bound")
            if bound is not None and entry["computed"] < bound:
                dims_ok = False
        return mults and sums and dims_ok

    @property
    def all_equal(self) -> bool:
        mults = all(m.equal for m in self.multiplicities.values())
        sums = all(c["computed"] == c["predicted"] for c in self.sum_checks.values())
        return mults and sums

    @property
    def passed(self) -> bool:
        return self.bounds_hold and self.all_equal and self.symmetry_identity

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "parity": self.parity,
            "multiplicities": {
                k: v.to_json_dict() for k, v in self.multiplicities.items()
            },
            "sum_checks": self.sum_checks,
            "symmetry_identity": self.symmetry_identity,
            "minpoly_squarefree": True,
            "dims": self.dims,
            "annihilation": self.annihilation,
            "passed": self.passed,
        }


def verify_single(r: int) -> VerificationReport:
    """Run every check for one degree, on one spectral context.

    The context's blocks carry their multiplicities, each pinned as one
    count (see _certify_block); a refused certificate raises
    ArithmeticError from spectral_context instead of a report.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    ctx = spectral_context(r)
    preds = predicted_bounds(r)

    # phi's multiplicities are the sums over its two swap blocks; phi_sym is
    # the symmetric block alone.
    names = {0: "0", 1: "plus1", -1: "minus1"}
    sym, anti = ctx.sym.multiplicities, ctx.anti.multiplicities
    mults = {}
    for lam, k in sym.items():
        key = f"m_phi_{names[lam]}"
        mults[key] = MultiplicityCheck(preds[key], k + anti[lam])
    for lam, k in sym.items():
        key = f"m_phi_sym_{names[lam]}"
        mults[key] = MultiplicityCheck(preds[key], k)

    sums = {}
    if r % 2:
        dims = odd_case_dims(ctx)
    else:
        sums["m_phi_pm_sum"] = {
            "predicted": preds["m_phi_pm_sum"],
            "computed": mults["m_phi_plus1"].count + mults["m_phi_minus1"].count,
        }
        sums["m_phi_sym_pm_sum"] = {
            "predicted": preds["m_phi_sym_pm_sum"],
            "computed": mults["m_phi_sym_plus1"].count + mults["m_phi_sym_minus1"].count,
        }
        dims = eigenspace_dims(ctx)

    return VerificationReport(
        r=r,
        parity=ODD if r % 2 else EVEN,
        multiplicities=mults,
        sum_checks=sums,
        symmetry_identity=check_diagonalizability(ctx),
        dims=dims,
        annihilation=ctx.annihilation,
    )


def verify_range(r_min: int, r_max: int) -> list:
    """Reports for every degree in [r_min, r_max], in order."""
    if not 1 <= r_min <= r_max:
        raise ValueError(f"need 1 <= r_min <= r_max, got {r_min}..{r_max}")
    return [verify_single(r) for r in range(r_min, r_max + 1)]
