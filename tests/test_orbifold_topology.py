from fractions import Fraction

import pytest

from czorb.cz_indices import mu_principal
from czorb.errors import DomainError
from czorb.orbifold_topology import (
    AbelianGroupDescriptor,
    p_star_factor,
    teardrop_cohomology,
    teardrop_homology,
    teardrop_orbifold_chern,
)
from czorb.spaces import b_constant
from czorb.weights import make_weight_vector, symplectic_area

Z = AbelianGroupDescriptor("free", rank=1)
ZERO = AbelianGroupDescriptor("trivial")


def test_homology_examples():
    assert teardrop_homology(3, 2) == Z
    assert teardrop_homology(3, 5) == AbelianGroupDescriptor("cyclic", order=3)
    assert teardrop_homology(3, 4) == ZERO


def test_cohomology_examples():
    assert teardrop_cohomology(5, 4) == AbelianGroupDescriptor("cyclic", order=5)
    assert teardrop_cohomology(5, 3) == ZERO
    assert teardrop_cohomology(5, 0) == Z


def test_table_rejects_smooth_sphere_and_negative_degree():
    with pytest.raises(DomainError):
        teardrop_homology(1, 0)
    with pytest.raises(DomainError):
        teardrop_cohomology(1, 0)
    with pytest.raises(DomainError):
        teardrop_homology(3, -1)


def test_group_descriptor_rendering():
    assert str(ZERO) == "0"
    assert str(Z) == "Z"
    assert str(AbelianGroupDescriptor("free", rank=2)) == "Z^2"
    assert str(AbelianGroupDescriptor("cyclic", order=7)) == "Z_7"


@pytest.mark.parametrize(
    "call, args",
    [
        (teardrop_homology, (2.5, 3)),
        (teardrop_cohomology, (3, 1.0)),
        (teardrop_orbifold_chern, (2.5,)),
        (p_star_factor, (True,)),
    ],
)
def test_teardrop_refuses_non_integers(call, args):
    with pytest.raises(DomainError, match="integer"):
        call(*args)


def test_full_tables():
    # frozen expected tables for degrees 0..12
    for m in (2, 3, 5, 12):
        zm = f"Z_{m}"
        expected_homology = ["Z", "0", "Z", zm, "0", zm, "0", zm, "0", zm, "0", zm, "0"]
        expected_cohomology = ["Z", "0", "Z", "0", zm, "0", zm, "0", zm, "0", zm, "0", zm]
        assert [str(teardrop_homology(m, q)) for q in range(13)] == expected_homology
        assert [str(teardrop_cohomology(m, q)) for q in range(13)] == expected_cohomology


def test_universal_coefficient_shadow():
    for m in (2, 3, 5, 12):
        for q in range(13):
            hom = teardrop_homology(m, q)
            coh = teardrop_cohomology(m, q)
            # free parts agree degreewise
            assert (hom.kind == "free") == (coh.kind == "free")
            if hom.kind == "free":
                assert hom.rank == coh.rank
            # torsion shifts up one degree
            if hom.kind == "cyclic":
                shifted = teardrop_cohomology(m, q + 1)
                assert shifted.kind == "cyclic" and shifted.order == m


def test_chern_examples():
    assert teardrop_orbifold_chern(1) == 2
    assert teardrop_orbifold_chern(2) == Fraction(3, 2)
    assert teardrop_orbifold_chern(7) == Fraction(8, 7)
    with pytest.raises(DomainError):
        teardrop_orbifold_chern(0)


def test_chern_times_m_is_integer():
    for m in range(1, 40):
        assert teardrop_orbifold_chern(m) * m == m + 1


def test_p_star_examples():
    assert p_star_factor(4) == Fraction(1, 4)
    assert p_star_factor(1) == 1
    assert p_star_factor(9) == Fraction(1, 9)
    with pytest.raises(DomainError):
        p_star_factor(0)


def test_teardrop_is_the_weighted_projective_line():
    # The order-m teardrop is P(1, m): c1^orb = b*[omega], and the principal
    # orbit's index 2*b equals 2*m*c1^orb; b, [omega] and the index come
    # from the weights (1, m) alone.
    for m in range(1, 41):
        wv = make_weight_vector([1, m])
        assert teardrop_orbifold_chern(m) == b_constant(wv) * -symplectic_area(wv)
        assert mu_principal(wv).index == 2 * m * teardrop_orbifold_chern(m)
