"""Orbifold (co)homology of the teardrop, its orbifold Chern number, and the
classifying-space projection factor.

The teardrop is the sphere with a single cone point of order m >= 2. Its
orbifold homology is Z in degrees 0 and 2, Z_m in every odd degree above 1,
and trivial otherwise; cohomology mirrors this with the torsion shifted up
one degree. The tables are total functions of the degree, not stored
matrices.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, check_int, is_int
from .record import Record


class AbelianGroupDescriptor(Record):
    """One of: the trivial group, a free group Z^rank, or a cyclic group
    Z_order, as `kind` "trivial", "free" or "cyclic"."""

    __slots__ = ("kind", "rank", "order")
    _defaults = {"rank": 0, "order": 0}

    def __str__(self) -> str:
        if self.kind == "trivial":
            return "0"
        if self.kind == "free":
            return "Z" if self.rank == 1 else f"Z^{self.rank}"
        return f"Z_{self.order}"


_Z = AbelianGroupDescriptor("free", rank=1)
_ZERO = AbelianGroupDescriptor("trivial")


def _teardrop_group(m: int, q: int, torsion_parity: int) -> AbelianGroupDescriptor:
    """Z in degrees 0 and 2, Z_m in the degrees q > 2 with q % 2 ==
    torsion_parity, and 0 otherwise."""
    if not (is_int(m) and is_int(q)):
        raise DomainError(f"the teardrop needs an integer cone order and degree, got ({m!r}, {q!r})")
    if m < 2:
        raise DomainError(f"the teardrop needs a cone order m >= 2, got {m} (m=1 is the smooth sphere)")
    if q < 0:
        raise DomainError(f"degree must be >= 0, got {q}")
    if q in (0, 2):
        return _Z
    if q > 2 and q % 2 == torsion_parity:
        return AbelianGroupDescriptor("cyclic", order=m)
    return _ZERO


def teardrop_homology(m: int, q: int) -> AbelianGroupDescriptor:
    """Orbifold homology of the order-m teardrop in degree q."""
    return _teardrop_group(m, q, 1)


def teardrop_cohomology(m: int, q: int) -> AbelianGroupDescriptor:
    """Orbifold cohomology of the order-m teardrop in degree q."""
    return _teardrop_group(m, q, 0)


def teardrop_orbifold_chern(m: int) -> Fraction:
    """Orbifold Chern number of the order-m teardrop: 2 - (1 - 1/m) = 1 + 1/m,
    one more than p_star_factor(m).

    m = 1 is accepted as the smooth-sphere limit (value 2).
    """
    return 1 + p_star_factor(m)


def p_star_factor(m: int) -> Fraction:
    """Multiplier of the classifying-space projection on degree-2 rational
    homology: 1/m."""
    if check_int("cone order", m) < 1:
        raise DomainError(f"cone order must be >= 1, got {m}")
    return Fraction(1, m)
