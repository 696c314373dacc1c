"""Periodic bracket formulas and the multiplicity verifier."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from sternsums.forms import IOTA, RHO, RHO_TWIST, operator_matrix, phi_matrix, sym_dimension
from sternsums.linalg import RationalMatrix, kernel_basis
from test_linalg import twist_forms
from sternsums.spectra import (
    EVEN,
    ODD,
    DIM_X,
    DIM_X_CAP_Y_MINUS,
    DIM_X_CAP_Y_PLUS,
    DIM_Y_MINUS,
    DIM_Y_PLUS,
    PeriodicFn,
    _dim_value,
    check_annihilation_identities,
    check_diagonalizability,
    eigenspace_dims,
    odd_case_dims,
    periodic_eval,
    predicted_bounds,
    spectral_context,
    verify_range,
    verify_single,
)

F = Fraction


def test_periodic_eval_goldens():
    fn = PeriodicFn((F(-1, 3), F(1), F(1, 3)), ODD, F(1, 3))
    assert periodic_eval(fn, 3) == 2
    fn2 = PeriodicFn((F(-1, 6), F(1, 2), F(1, 6)), ODD, F(1, 6))
    assert periodic_eval(fn2, 1) == 0
    const = PeriodicFn((F(9, 2),), EVEN)
    for r in (0, 2, 4, 10):
        assert periodic_eval(const, r) == F(9, 2)


def test_periodic_eval_anchoring():
    # a_1 sits at r == 1 (mod 2p) on the odd class, r == 0 on the even class
    fn = PeriodicFn((F(10), F(20), F(30)), ODD)
    assert periodic_eval(fn, 1) == 10
    assert periodic_eval(fn, 3) == 20
    assert periodic_eval(fn, 5) == 30
    assert periodic_eval(fn, 7) == 10  # period 6
    ev = PeriodicFn((F(10), F(20)), EVEN)
    assert periodic_eval(ev, 0) == 10
    assert periodic_eval(ev, 2) == 20
    assert periodic_eval(ev, 4) == 10  # period 4


def test_periodic_eval_parity_mismatch():
    fn = PeriodicFn((F(1),), ODD)
    with pytest.raises(ValueError):
        periodic_eval(fn, 2)


def test_predicted_bounds_goldens():
    assert predicted_bounds(3) == {"m_phi_0": 2, "m_phi_sym_0": 1}
    pb2 = predicted_bounds(2)
    assert pb2["m_phi_plus1"] == 1
    assert pb2["m_phi_minus1"] == 0
    assert predicted_bounds(1) == {"m_phi_0": 0, "m_phi_sym_0": 0}


def test_predicted_bounds_are_nonnegative_integers_up_to_100():
    for r in range(1, 101):
        for v in predicted_bounds(r).values():
            assert isinstance(v, int) and v >= 0


def test_odd_case_dims_goldens():
    # the report's entries as they stand: a in {0, 3} at r = 3, one pair
    assert odd_case_dims(spectral_context(3)) == {
        "dim_W": {"formula": 2, "computed": 2, "residue_count": 2},
        "dim_W_sym": {"formula": 1, "computed": 1, "residue_count": 1},
    }
    assert odd_case_dims(spectral_context(1))["dim_W"]["residue_count"] == 0
    # a in {0, 3, 6, 9}
    assert odd_case_dims(spectral_context(9))["dim_W"]["residue_count"] == 4
    with pytest.raises(ValueError):
        odd_case_dims(spectral_context(4))


def test_dim_value_rejects_a_non_dimension():
    with pytest.raises(ValueError, match="r=1"):
        _dim_value(PeriodicFn((F(1, 2),), ODD), 1)
    with pytest.raises(ValueError):
        _dim_value(PeriodicFn((F(-1),), ODD), 1)


def test_odd_counts_match_formulas_up_to_60():
    for r in range(1, 61, 2):
        for entry in odd_case_dims(spectral_context(r)).values():
            assert entry["residue_count"] == entry["formula"], r


def test_eigenspace_dims_r2_golden():
    e2 = eigenspace_dims(spectral_context(2))
    assert e2["dim_X"] == {"formula": 2, "computed": 2}
    assert e2["dim_Y_plus"]["computed"] == 1
    assert e2["dim_Y_minus"]["computed"] == 2
    assert e2["dim_X_cap_Y_minus"] == {"bound": 1, "computed": 1}
    assert e2["dim_X_cap_Y_plus"] == {"bound": 0, "computed": 0}
    assert e2["dim_X_sym"]["computed"] == 1
    assert e2["dim_Y_plus_sym"]["computed"] == 1
    assert e2["dim_Y_minus_sym"]["computed"] == 1
    with pytest.raises(ValueError):
        eigenspace_dims(spectral_context(3))
    with pytest.raises(ValueError):
        eigenspace_dims(spectral_context(0))


def test_quarter_turn_eigenspaces_r2_by_hand():
    # the quarter turn sends x^2 -> y^2, xy -> -xy, y^2 -> x^2
    i2 = operator_matrix(IOTA, 2)
    ident = RationalMatrix.identity(3)
    assert kernel_basis(i2 - ident) == [(1, 0, 1)]
    y_minus = kernel_basis(i2 + ident)
    assert len(y_minus) == 2


def test_quarter_turn_is_a_signed_permutation():
    # x^b y^(r-b) -> (-1)^(r-b) x^(r-b) y^b, that is (iota v)[a] = (-1)^a v[r-a];
    # so on a form with v[r-a] = s v[a] it acts on entry a as s (-1)^a, which
    # is checked on the twist halves that spectral_context builds
    for r in range(2, 61, 2):
        iota = operator_matrix(IOTA, r)
        signed = [[(-1) ** a * (b == r - a) for b in range(r + 1)] for a in range(r + 1)]
        assert iota == RationalMatrix(signed), r
        for sign, v in twist_forms(spectral_context(r)):
            expected = [sign * (-1) ** a * x for a, x in enumerate(v)]
            assert iota.mat_vec(v) == expected, r


def test_quarter_turn_eigenspace_dims_match_the_eliminated_kernels():
    for r in range(2, 41, 2):
        iota = operator_matrix(IOTA, r)
        ident = RationalMatrix.identity(r + 1)
        dims = eigenspace_dims(spectral_context(r))
        assert dims["dim_Y_plus"]["computed"] == len(kernel_basis(iota - ident)), r
        assert dims["dim_Y_minus"]["computed"] == len(kernel_basis(iota + ident)), r


def test_inclusion_exclusion_identity_of_formula_tables():
    # bound(X n Y+-) == dim X + dim Y+- - (r + 1), as periodic functions
    for r in range(2, 121, 2):
        dx = periodic_eval(DIM_X, r)
        assert periodic_eval(DIM_X_CAP_Y_PLUS, r) == dx + periodic_eval(
            DIM_Y_PLUS, r
        ) - (r + 1)
        assert periodic_eval(DIM_X_CAP_Y_MINUS, r) == dx + periodic_eval(
            DIM_Y_MINUS, r
        ) - (r + 1)


def test_order3_decomposition_consistency():
    # X plus the fixed space of the twist fills the whole space, even degree
    for r in range(2, 25, 2):
        n = r + 1
        ident = RationalMatrix.identity(n)
        twist = operator_matrix(RHO_TWIST, r)
        dim_x = len(kernel_basis(twist @ twist + twist + ident))
        dim_fixed = len(kernel_basis(twist - ident))
        assert dim_x + dim_fixed == n, r
        # same counts for the plain twist, which is conjugate
        rho = operator_matrix(RHO, r)
        assert len(kernel_basis(rho @ rho + rho + ident)) == dim_x, r


def test_conjugate_twists_share_eigenspace_dimensions_odd():
    for r in range(1, 26, 2):
        n = r + 1
        ident = RationalMatrix.identity(n)
        d_twist = len(kernel_basis(operator_matrix(RHO_TWIST, r) + ident))
        d_rho = len(kernel_basis(operator_matrix(RHO, r) + ident))
        assert d_twist == d_rho == odd_case_dims(spectral_context(r))["dim_W"]["computed"], r


def test_annihilation_identities():
    a3 = check_annihilation_identities(spectral_context(3))
    assert a3 == {"phi_kills_W": True, "space_dim": 2}
    a2 = check_annihilation_identities(spectral_context(2))
    assert a2 == {"phi_plus_iota_kills_X": True, "space_dim": 2}
    a1 = check_annihilation_identities(spectral_context(1))
    assert a1["phi_kills_W"] and a1["space_dim"] == 0  # vacuous
    a0 = check_annihilation_identities(spectral_context(0))
    assert a0 == {"phi_plus_iota_kills_X": True, "space_dim": 0}  # vacuous


def full_width_annihilation(ctx) -> dict:
    """The identities on the full transfer matrix, each half vector rebuilt
    as its form, and the quarter turn as its substitution matrix: the oracle
    of check_annihilation_identities, which checks them on the swap blocks."""
    r = ctx.r
    forms = [v for _, v in twist_forms(ctx)]
    if r % 2:
        return {
            "phi_kills_W": all(not any(ctx.phi.mat_vec(v)) for v in forms),
            "space_dim": len(forms),
        }
    combo = ctx.phi + operator_matrix(IOTA, r)
    return {
        "phi_plus_iota_kills_X": all(not any(combo.mat_vec(v)) for v in forms),
        "space_dim": len(forms),
    }


def test_block_annihilation_check_equals_the_full_width_one():
    for r in [*range(1, 21), 30, 45, 60]:
        ctx = spectral_context(r)
        assert check_annihilation_identities(ctx) == full_width_annihilation(ctx), r


def test_block_annihilation_check_fails_forged_vectors():
    # every class unit vector, alone and added to a genuine half vector, the
    # middle class of even r included: the block check agrees with the full
    # width one, so it passes no form that the full-width one fails
    failed = Counter()
    for r in range(3, 13):
        ctx = spectral_context(r)
        identity = "phi_kills_W" if r % 2 else "phi_plus_iota_kills_X"
        for sign, name in ((1, "twist_sym"), (-1, "twist_anti")):
            basis = getattr(ctx, name)
            width = sym_dimension(r) if sign == 1 else (r + 1) // 2
            for i in range(width):
                unit = tuple(int(j == i) for j in range(width))
                for forged in (unit, *(tuple(map(sum, zip(w, unit))) for w in basis[:1])):
                    fake = replace(ctx, **{name: basis + (forged,)})
                    got = check_annihilation_identities(fake)
                    assert got == full_width_annihilation(fake), (r, sign, forged)
                    failed[r % 2, sign] += not got[identity]
    assert all(failed[parity, sign] for parity in (0, 1) for sign in (1, -1)), failed


def test_transfer_factors_through_twist_plus_one():
    # the transfer matrix equals tau-substitution applied after (twist + 1)
    from sternsums.forms import TAU

    for r in range(0, 21):
        n = r + 1
        twist = operator_matrix(RHO_TWIST, r)
        tau_m = operator_matrix(TAU, r)
        assert tau_m @ (twist + RationalMatrix.identity(n)) == phi_matrix(r), r


def test_diagonalizability_witnesses():
    # the symmetry identity alone: the squarefree witness is the certificate
    # that built the context
    for r in (0, 3, 20):
        assert check_diagonalizability(spectral_context(r)) is True, r


def test_symmetry_identity_spot_values():
    # a!(r-a)! phi[a][b] == b!(r-b)! phi[b][a]; at r=3, (a,b)=(0,1): 6*1 == 2*3
    import math

    phi = phi_matrix(3)
    assert math.factorial(0) * math.factorial(3) * phi[0, 1] == 6
    assert math.factorial(1) * math.factorial(2) * phi[1, 0] == 6


def test_verify_single_r3():
    rep = verify_single(3)
    chk = rep.multiplicities["m_phi_0"]
    assert (chk.predicted, chk.count) == (2, 2)
    assert chk.equal
    assert rep.multiplicities["m_phi_sym_0"].equal
    assert rep.symmetry_identity
    assert rep.dims["dim_W"]["computed"] == 2
    assert rep.passed
    doc = rep.to_json_dict()
    json.dumps(doc)  # serializable as-is
    # the one count is written as both multiplicities, and the squarefree
    # witness as the true the certificate established
    assert doc["multiplicities"]["m_phi_0"]["geometric"] == 2
    assert doc["multiplicities"]["m_phi_0"]["algebraic"] == 2
    assert doc["minpoly_squarefree"] is True


def test_verify_single_r2():
    rep = verify_single(2)
    assert rep.multiplicities["m_phi_plus1"].equal
    assert rep.multiplicities["m_phi_minus1"].predicted == 0
    assert rep.sum_checks["m_phi_pm_sum"] == {"predicted": 1, "computed": 1}
    assert rep.passed


def test_verify_range_small_sweep():
    reports = verify_range(1, 12)
    assert [rep.r for rep in reports] == list(range(1, 13))
    assert all(rep.passed for rep in reports)
    assert all(rep.bounds_hold and rep.all_equal for rep in reports)


def test_verify_range_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_range(5, 4)
    with pytest.raises(ValueError):
        verify_range(0, 3)
