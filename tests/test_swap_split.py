"""The swap-block split of the transfer matrix against the full-matrix route.

verify_single computes every spectral quantity on the two swap blocks of
phi, reading them from one spectral context per degree.  The oracle here is
the route it replaced: every multiplicity on the full (r+1)-wide matrix,
each check rebuilding what it needs, and the eigenspace kernels used as the
Fraction vectors kernel_basis returns, the twist kernel eliminated full
width.  The certificate that pins each block's multiplicities and its
squarefree witness from the twist halves and a charpoly mod p is checked
against the exact route that the library no longer takes: Berkowitz and
the block nullities, the Krylov minimal polynomial, and the radical
evaluated at the block.  Each certificate is forced to refuse too, and
verify must then exit 1 naming the degree and the witness.
"""

import math
import random
from collections import Counter

import pytest

import sternsums.forms as forms
import sternsums.linalg as linalg
import sternsums.spectra as spectra
from sternsums.cli import EXIT_VERIFICATION_FAILED, VERIFY_MAX_DEGREE, main
from sternsums.forms import (
    IOTA,
    RHO_TWIST,
    anti_quotient,
    operator_matrix,
    phi_matrix,
    sym_dimension,
    sym_quotient,
)
from sternsums.linalg import (
    RationalMatrix,
    charpoly,
    divide_out,
    eigen_multiplicity,
    is_squarefree,
    kernel_basis,
    minpoly,
    polynomial_gcd,
    rank,
)
from sternsums.spectra import (
    COUNT_W,
    COUNT_W_SYM,
    DIM_X,
    DIM_X_CAP_Y_MINUS,
    DIM_X_CAP_Y_MINUS_SYM,
    DIM_X_CAP_Y_PLUS,
    DIM_X_CAP_Y_PLUS_SYM,
    DIM_X_SYM,
    DIM_Y_MINUS,
    DIM_Y_MINUS_SYM,
    DIM_Y_PLUS,
    DIM_Y_PLUS_SYM,
    EVEN,
    ODD,
    SwapBlock,
    periodic_eval,
    predicted_bounds,
    spectral_context,
    verify_single,
)
from test_forms import fold_matrix, swap_projection
from test_linalg import _block_diag, _conjugate, _jordan, horner_at_matrix


# -- the full-matrix oracle ---------------------------------------------------


def project_span_dim(projection: RationalMatrix, vectors: list) -> int:
    """Dimension of the image of span(vectors) under the quotient projection."""
    if not vectors:
        return 0
    return rank(RationalMatrix([projection.mat_vec(v) for v in vectors]))


def _full_eigenspace_dims(r: int) -> dict:
    n = r + 1
    ident = RationalMatrix.identity(n)
    twist = operator_matrix(RHO_TWIST, r)
    x_mat = twist @ twist + twist + ident
    iota_m = operator_matrix(IOTA, r)
    projection = swap_projection(r, 1)
    x_basis = kernel_basis(x_mat)
    yp_basis = kernel_basis(iota_m - ident)
    ym_basis = kernel_basis(iota_m + ident)

    def joint_dim(mat_a, mat_b):
        return len(kernel_basis(RationalMatrix([*mat_a.rows, *mat_b.rows])))

    def span_sum_dim(vecs_a, vecs_b):
        vecs = [projection.mat_vec(v) for v in list(vecs_a) + list(vecs_b)]
        return rank(RationalMatrix(vecs)) if vecs else 0

    dim_x_sym = project_span_dim(projection, x_basis)
    dim_yp_sym = project_span_dim(projection, yp_basis)
    dim_ym_sym = project_span_dim(projection, ym_basis)

    def formula(fn, computed):
        return {"formula": periodic_eval(fn, r), "computed": computed}

    def bound(fn, computed):
        return {"bound": periodic_eval(fn, r), "computed": computed}

    return {
        "dim_X": formula(DIM_X, len(x_basis)),
        "dim_Y_plus": formula(DIM_Y_PLUS, len(yp_basis)),
        "dim_Y_minus": formula(DIM_Y_MINUS, len(ym_basis)),
        "dim_X_sym": formula(DIM_X_SYM, dim_x_sym),
        "dim_Y_plus_sym": formula(DIM_Y_PLUS_SYM, dim_yp_sym),
        "dim_Y_minus_sym": formula(DIM_Y_MINUS_SYM, dim_ym_sym),
        "dim_X_cap_Y_plus": bound(DIM_X_CAP_Y_PLUS, joint_dim(x_mat, iota_m - ident)),
        "dim_X_cap_Y_minus": bound(DIM_X_CAP_Y_MINUS, joint_dim(x_mat, iota_m + ident)),
        "dim_X_cap_Y_plus_sym": bound(
            DIM_X_CAP_Y_PLUS_SYM,
            dim_x_sym + dim_yp_sym - span_sum_dim(x_basis, yp_basis),
        ),
        "dim_X_cap_Y_minus_sym": bound(
            DIM_X_CAP_Y_MINUS_SYM,
            dim_x_sym + dim_ym_sym - span_sum_dim(x_basis, ym_basis),
        ),
    }


def full_matrix_report(r: int) -> dict:
    """verify_single(r).to_json_dict() on the full transfer matrix, without
    the swap split or the certificate: geometric and algebraic
    multiplicities each from the exact route (and asserted equal), the
    squarefree witness from the Krylov minimal polynomials, and the
    identities on full-width kernels."""
    n = r + 1
    phi = phi_matrix(r)
    projection, phi_sym = swap_projection(r, 1), sym_quotient(r)
    preds = predicted_bounds(r)
    twist = operator_matrix(RHO_TWIST, r)
    ident = RationalMatrix.identity(n)
    if r % 2:
        pairs = [("m_phi_0", phi, 0), ("m_phi_sym_0", phi_sym, 0)]
    else:
        pairs = [
            ("m_phi_plus1", phi, 1),
            ("m_phi_minus1", phi, -1),
            ("m_phi_sym_plus1", phi_sym, 1),
            ("m_phi_sym_minus1", phi_sym, -1),
        ]
    mults = {}
    for key, mat, lam in pairs:
        geo, alg = eigen_multiplicity(mat, lam)
        assert geo == alg, (r, key)
        mults[key] = {
            "predicted": preds[key],
            "geometric": geo,
            "algebraic": alg,
            "bound_holds": geo >= preds[key] and alg >= preds[key],
            "equal": geo == preds[key] and alg == preds[key],
        }
    sums = {}
    if r % 2:
        w_basis = kernel_basis(twist + ident)
        hits = [a for a in range(n) if (2 * a - (r + 3)) % 6 == 0]
        dims = {
            "dim_W": {
                "formula": periodic_eval(COUNT_W, r),
                "computed": len(w_basis),
                "residue_count": len(hits),
            },
            "dim_W_sym": {
                "formula": periodic_eval(COUNT_W_SYM, r),
                "computed": project_span_dim(projection, w_basis),
                "residue_count": len({frozenset((a, r - a)) for a in hits}),
            },
        }
        annihilation = {
            "phi_kills_W": all(not any(phi.mat_vec(v)) for v in w_basis),
            "space_dim": len(w_basis),
        }
    else:
        for key, plus, minus in (
            ("m_phi_pm_sum", "m_phi_plus1", "m_phi_minus1"),
            ("m_phi_sym_pm_sum", "m_phi_sym_plus1", "m_phi_sym_minus1"),
        ):
            sums[key] = {
                "predicted": preds[key],
                "computed": mults[plus]["geometric"] + mults[minus]["geometric"],
            }
        dims = _full_eigenspace_dims(r)
        x_basis = kernel_basis(twist @ twist + twist + ident)
        combo = phi + operator_matrix(IOTA, r)
        annihilation = {
            "phi_plus_iota_kills_X": all(not any(combo.mat_vec(v)) for v in x_basis),
            "space_dim": len(x_basis),
        }
    fact = [math.factorial(k) for k in range(n)]
    symmetric = all(
        fact[a] * fact[r - a] * phi.rows[a][b] == fact[b] * fact[r - b] * phi.rows[b][a]
        for a in range(n)
        for b in range(a + 1, n)
    )
    squarefree = is_squarefree(minpoly(phi)) and is_squarefree(minpoly(phi_sym))
    dims_hold = all(
        entry["computed"] == entry[key]
        for entry in dims.values()
        for key in ("formula", "residue_count")
        if key in entry
    ) and all(entry["computed"] >= entry["bound"] for entry in dims.values() if "bound" in entry)
    passed = (
        all(m["equal"] for m in mults.values())
        and all(c["computed"] == c["predicted"] for c in sums.values())
        and dims_hold
        and symmetric
        and squarefree
        and all(v for v in annihilation.values() if isinstance(v, bool))
    )
    return {
        "r": r,
        "parity": ODD if r % 2 else EVEN,
        "multiplicities": mults,
        "sum_checks": sums,
        "symmetry_identity": symmetric,
        "minpoly_squarefree": squarefree,
        "dims": dims,
        "annihilation": annihilation,
        "passed": passed,
    }


def _lcm(p, q):
    return divide_out(p * q, polynomial_gcd(p, q), 1)


# -- the block route against the oracle ----------------------------------------


def test_block_route_reports_equal_the_full_matrix_route():
    for r in range(1, 21):
        assert verify_single(r).to_json_dict() == full_matrix_report(r), r


def test_eigenspace_dims_equal_the_full_matrix_route_past_20():
    for r in range(22, 41, 2):
        assert spectra.eigenspace_dims(spectral_context(r)) == _full_eigenspace_dims(r), r


def test_blocks_split_the_spectrum_of_phi():
    for r in range(1, 21):
        phi = phi_matrix(r)
        sym = sym_quotient(r)
        q, anti = swap_projection(r, -1), anti_quotient(r)
        assert q @ phi == anti @ q, r
        assert sym.nrows + anti.nrows == r + 1, r
        assert charpoly(phi) == charpoly(sym) * charpoly(anti), r
        assert minpoly(phi) == _lcm(minpoly(sym), minpoly(anti)), r


def test_anti_quotient_goldens():
    # by hand at r = 3: the rows of Q @ phi are phi[3] - phi[0] and phi[2] - phi[1]
    q, anti = RationalMatrix(fold_matrix(3, -1)), anti_quotient(3)
    assert q.to_lists() == [[-1, 0, 0, 1], [0, -1, 1, 0]]
    assert q @ phi_matrix(3) == anti @ q
    assert anti.to_lists() == [[1, 0], [0, 0]]
    assert anti_quotient(1).to_lists() == [[1]]
    with pytest.raises(ValueError):
        anti_quotient(0)


def test_context_holds_one_block_per_swap_class():
    ctx = spectral_context(6)
    assert [b.matrix.nrows for b in ctx.blocks] == [4, 3]
    assert [set(b.multiplicities) for b in ctx.blocks] == [{1, -1}, {1, -1}]
    assert [set(b.multiplicities) for b in spectral_context(7).blocks] == [{0}, {0}]
    halves = ctx.twist_sym + ctx.twist_anti
    assert halves and all(isinstance(x, int) for w in halves for x in w)
    assert spectral_context(0).blocks == (spectral_context(0).sym,)
    with pytest.raises(ValueError):
        spectra.odd_case_dims(ctx)


# -- the squarefree witness -----------------------------------------------------


def _radical_annihilates(m: RationalMatrix) -> bool:
    """The radical route: cp / gcd(cp, cp') annihilates m."""
    cp = charpoly(m)
    radical = divide_out(cp, polynomial_gcd(cp, cp.derivative()), 1)
    return horner_at_matrix(radical, m).is_zero()


def test_minpoly_squarefree_against_the_minpoly_oracle():
    # every context built carries the certificate's squarefree witness; the
    # minimal polynomial is squarefree iff the radical annihilates the
    # block (test_certificate_pins_what_the_exact_route_computes asks
    # is_squarefree(minpoly) itself); the oracle costs most at the top, so
    # the default sweep samples it
    for r in [*range(1, 21), 30, 45, 60]:
        ctx = spectral_context(r)
        for block in ctx.blocks:
            assert _radical_annihilates(block.matrix) is True, r


def _seeded_witness_cases():
    """(matrix, expected witness): Jordan and nilpotent matrices are not
    diagonalizable; derogatory diagonalizable ones repeat an eigenvalue."""
    rng = random.Random(1971)
    for trial in range(90):
        kind = trial % 3
        if kind == 0:
            lam = rng.randint(-3, 3)
            blocks = [_jordan(lam, rng.randint(2, 3))]
            blocks += [_jordan(rng.randint(-3, 3), 1) for _ in range(rng.randint(0, 2))]
            yield _conjugate(rng, _block_diag(blocks)), False
        elif kind == 1:
            n = rng.randint(2, 5)
            upper = [[rng.randint(-3, 3) * (j > i) for j in range(n)] for i in range(n)]
            upper[0][n - 1] = rng.choice([-2, -1, 1, 2])  # nonzero, so not 0
            yield _conjugate(rng, RationalMatrix(upper)), False
        else:
            eigenvalues = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            diag = eigenvalues + [rng.choice(eigenvalues)]  # one value repeats
            blocks = [_jordan(lam, 1) for lam in diag]
            yield _conjugate(rng, _block_diag(blocks)), True


def test_minpoly_squarefree_on_seeded_matrices():
    # the two exact oracles of the witness agree on every seeded case
    for m, expected in _seeded_witness_cases():
        assert _radical_annihilates(m) is expected, m
        assert is_squarefree(minpoly(m)) is expected, m


# -- the multiplicity certificate -----------------------------------------------


def _withhold_an_eigenvector(monkeypatch):
    """Each block is built with one eigenvector fewer at each eigenvalue;
    returns the shifts of the (count, multiplicity mod p) pair refused."""
    real = spectra.SwapBlock

    def withheld(matrix, multiplicities):
        return real(matrix, {lam: k - 1 for lam, k in multiplicities.items()})

    monkeypatch.setattr(spectra, "SwapBlock", withheld)
    return -1, 0


def _miscount_a_root(monkeypatch):
    """Every multiplicity mod p comes out one too high; returns the shifts
    of the (count, multiplicity mod p) pair refused."""
    real = spectra._root_power
    monkeypatch.setattr(spectra, "_root_power", lambda *args: real(*args) + 1)
    return 0, 1


def _assert_exits_1_naming(capsys, r, *witness):
    """verify r r, in text and with --json, exits 1 with empty stdout and a
    message on stderr that names r and every part of the witness."""
    for fmt in ([], ["--json"]):
        code = main(["verify", str(r), str(r), *fmt])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFICATION_FAILED
        assert captured.out == ""
        assert captured.err.startswith(f"error: r={r}: "), captured.err
        for part in witness:
            assert part in captured.err, (part, captured.err)


def test_certificate_prime_is_the_first_of_the_walk_and_above_every_block():
    # _certify_block needs p above every block size, hence every
    # multiplicity; the symmetric block is the larger, and widest at the cap
    p = spectra._CERTIFICATE_PRIME
    assert p == next(linalg._primes_below_2_30()) == 2**30 - 35
    assert sym_dimension(VERIFY_MAX_DEGREE) < p < 2**30


def test_spectra_keeps_no_exact_spectral_route():
    # the exact routines are the tests' oracle, and serve mine's annihilator
    for name in (
        "charpoly",
        "eigen_multiplicity",
        "minpoly",
        "is_squarefree",
        "polynomial_gcd",
        "root_power",
        "_integer_kernel",
        "_half_kernel",
    ):
        assert not hasattr(spectra, name), name


def _assert_certificate_pins_what_the_exact_route_computes(degrees):
    # Berkowitz with the block nullities, and the Krylov minimal polynomial,
    # are the oracle of what each block of the context carries
    for r in degrees:
        for block in spectral_context(r).blocks:
            pinned = {lam: (k, k) for lam, k in block.multiplicities.items()}
            assert pinned == {lam: eigen_multiplicity(block.matrix, lam) for lam in pinned}, r
            assert is_squarefree(minpoly(block.matrix)), r


def test_certificate_pins_what_the_exact_route_computes():
    # the oracles cost most at the top, so the default sweep samples it
    _assert_certificate_pins_what_the_exact_route_computes([*range(1, 21), 30, 45, 60])


@pytest.mark.extended
def test_certificate_pins_what_the_exact_route_computes_up_to_r60():
    _assert_certificate_pins_what_the_exact_route_computes(range(1, 61))


@pytest.mark.parametrize("r", [11, 12, 20, 21])
@pytest.mark.parametrize("refuse", [_withhold_an_eigenvector, _miscount_a_root])
def test_refused_certificate_exits_1(monkeypatch, capsys, r, refuse):
    # the witness is the first eigenvalue of the sym block, the first checked
    lam, k = next(iter(spectral_context(r).sym.multiplicities.items()))
    count, mult = (k + shift for shift in refuse(monkeypatch))
    _assert_exits_1_naming(
        capsys, r, "sym block", f"{count} eigenvectors at {lam}", f"multiplicity {mult} mod p"
    )


@pytest.mark.parametrize("r", [11, 12])
def test_repeated_root_mod_p_exits_1(monkeypatch, capsys, r):
    # one more repeated root than the pinned eigenvalues account for
    pinned = sum(k - 1 for k in spectral_context(r).sym.multiplicities.values() if k)
    real = spectra._gcd_mod
    monkeypatch.setattr(spectra, "_gcd_mod", lambda *args: real(*args) + [0])
    _assert_exits_1_naming(
        capsys, r, "sym block", f"deg gcd(cp, cp') mod p is {pinned + 1}", f"for {pinned}"
    )


@pytest.mark.parametrize("r", [11, 12])
def test_certificate_waits_for_the_annihilation_identities(monkeypatch, capsys, r):
    # the twist halves bound nothing until the identities hold: a failed one
    # exits 1 naming it, before any charpoly mod p
    real = spectra.check_annihilation_identities

    def failed(ctx):
        return {k: False if isinstance(v, bool) else v for k, v in real(ctx).items()}

    monkeypatch.setattr(spectra, "check_annihilation_identities", failed)
    monkeypatch.setattr(spectra, "_charpoly_mod", None)
    identity = "phi_kills_W" if r % 2 else "phi_plus_iota_kills_X"
    _assert_exits_1_naming(capsys, r, f"annihilation identity {identity} fails")


def test_verify_fails_when_a_block_has_a_jordan_block(monkeypatch, capsys):
    # r = 4 has the anti block diag(1, -1); a 2x2 Jordan block at 1 in its
    # place fails X_anti's identity, which spans both classes
    jordan = RationalMatrix([[1, 1], [0, 1]])
    monkeypatch.setattr(spectra, "anti_quotient", lambda r, phi=None: jordan)
    _assert_exits_1_naming(capsys, 4, "annihilation identity phi_plus_iota_kills_X fails")


def _certified(m: RationalMatrix, counts: dict) -> bool:
    """Whether the certificate pins counts on the block m."""
    try:
        spectra._certify_block(0, "sym", SwapBlock(m, counts))
    except ArithmeticError:
        return False
    return True


def test_certificate_refuses_or_agrees_on_seeded_matrices():
    # the exact geometric multiplicities at 0 and +-1 are the largest counts
    # a caller could certify; a Jordan block, at 0 or +-1 next to a simple
    # eigenvalue too, must be refused whatever it is
    cases = list(_seeded_witness_cases())
    for lam in (0, 1, -1):
        cases.append((_block_diag([_jordan(lam, 2), _jordan(-lam or 5, 1)]), False))
        cases.append((_block_diag([_jordan(lam, 1), _jordan(lam, 1), _jordan(7, 1)]), True))
    outcomes = Counter()
    for m, expected in cases:
        exact = {lam: eigen_multiplicity(m, lam) for lam in (0, 1, -1)}
        pinned = _certified(m, {lam: geo for lam, (geo, _) in exact.items()})
        if pinned:
            assert expected is True, m
            assert all(geo == alg for geo, alg in exact.values()), m
        outcomes[pinned, expected] += 1
    assert outcomes[True, True] and outcomes[False, True] and outcomes[False, False]


def _cap_the_echelons(monkeypatch):
    """Each echelon mod p keeps one vector at most, so the ranks of the
    image and the factor never sum to a half wider than 2."""
    real = spectra._extend_echelon

    def capped(echelon, vec, p):
        return not echelon and real(echelon, vec, p)

    monkeypatch.setattr(spectra, "_extend_echelon", capped)


@pytest.mark.parametrize("r", [11, 12])
def test_refused_twist_half_exits_1_naming_its_sign(monkeypatch, capsys, r):
    # the symmetric half is the first taken, and wider than 2
    _cap_the_echelons(monkeypatch)
    _assert_exits_1_naming(capsys, r, "twist half of sign +1 refused")


@pytest.mark.extended
def test_every_degree_passes_on_the_certificate_up_to_the_verify_cap():
    # no certificate refuses a degree that verify admits, so taking the
    # exact route off the library changed no report
    for r in range(1, VERIFY_MAX_DEGREE + 1):
        assert verify_single(r).passed, r


# -- the certificate of the split -------------------------------------------------


def _skewed_phi(r):
    rows = forms.phi_matrix(r).to_lists()
    rows[0][1] += 1
    return RationalMatrix(rows)


def test_context_rejects_a_phi_that_does_not_commute_with_the_swap(monkeypatch):
    monkeypatch.setattr(spectra, "phi_matrix", _skewed_phi)
    with pytest.raises(ArithmeticError, match=r"r=5: phi does not commute"):
        spectral_context(5)


def test_verify_exits_1_naming_the_degree_when_the_swap_certificate_fails(
    monkeypatch, capsys
):
    monkeypatch.setattr(spectra, "phi_matrix", _skewed_phi)
    _assert_exits_1_naming(capsys, 4, "phi does not commute with the swap")


# -- redundancy ----------------------------------------------------------------------


@pytest.mark.parametrize("r", [11, 12])
def test_verify_single_builds_each_object_once(monkeypatch, r):
    # one context, one charpoly mod p per block, and no exact one: the
    # certificate pins every multiplicity, and once, when the context is built
    calls = Counter()
    charpoly_widths = []
    modules = (forms, linalg, spectra)
    names = ("phi_matrix", "sym_quotient", "charpoly", "_charpoly_mod", "minpoly", "is_squarefree")
    for name in names:
        original = getattr(forms if name in ("phi_matrix", "sym_quotient") else linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "_charpoly_mod":
                charpoly_widths.append(len(args[0]))
            return _original(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    real_init = spectra.SpectralContext.__init__

    def counted_init(self, *args, **kwargs):
        calls["SpectralContext"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(spectra.SpectralContext, "__init__", counted_init)
    verify_single(r)
    assert calls["SpectralContext"] == 1
    assert calls["phi_matrix"] <= 2
    assert calls["sym_quotient"] <= 1
    assert calls["_charpoly_mod"] == 2
    assert calls["charpoly"] == 0
    assert calls["minpoly"] == 0
    assert calls["is_squarefree"] == 0
    assert max(charpoly_widths) <= (r + 2) // 2


@pytest.mark.parametrize("r", [11, 12, 20])
def test_verify_single_builds_no_quarter_turn_matrix(monkeypatch, r):
    # the quarter turn is a sign per entry of each swap half, and the twist
    # kernel is taken as its two halves from the image of the complementary
    # factor, pinned mod p: no substitution matrix, no exact kernel.  The
    # dimensions are read off the halves: for even r four ranks each at
    # most half as wide as a half, for odd r no rank, and no block nullity,
    # as the certificate pins every multiplicity.  No two matrices are
    # multiplied: t and t^2 come from binomials.
    gammas = []
    kernels = Counter()
    rank_widths = {linalg: [], spectra: []}
    products = Counter()
    original_operator = forms.operator_matrix
    original_kernel = linalg._integer_kernel
    original_rank = linalg.rank
    original_matmul = RationalMatrix.__matmul__

    def counted_operator(gamma, degree):
        gammas.append(gamma)
        return original_operator(gamma, degree)

    def counted_kernel(m):
        kernels[m.ncols] += 1
        return original_kernel(m)

    def counted_matmul(a, b):
        products[a.ncols] += 1
        return original_matmul(a, b)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counted_matmul)
    for module in (forms, linalg, spectra):
        if module.__dict__.get("operator_matrix") is original_operator:
            monkeypatch.setattr(module, "operator_matrix", counted_operator)
        if module.__dict__.get("_integer_kernel") is original_kernel:
            monkeypatch.setattr(module, "_integer_kernel", counted_kernel)
    for module, widths in rank_widths.items():

        def counted_rank(m, _widths=widths):
            _widths.append(m.ncols)
            return original_rank(m)

        monkeypatch.setattr(module, "rank", counted_rank)
    assert verify_single(r).passed
    assert not gammas
    assert not kernels
    assert not rank_widths[linalg]
    assert len(rank_widths[spectra]) == (0 if r % 2 else 4)
    assert max(rank_widths[spectra], default=0) <= (r // 2 + 2) // 2
    assert not products
