"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/parse problems exit 2,
mathematical inconsistency exits 3, and a dimension above the SVP/CVP cap
(``DimensionUnsupported``) exits 4; every other ``MdcrtError``, such as
``NotPrime`` from ``svp-search``, exits 2, as does a ``MemoryError`` from an
input too large to allocate for (``drange --q 10000000000``'s prime sieve).
No search has a size cap to exceed: regions are never enumerated, and
``lattice.nearest_region_point``'s ring search ends because the region is
nonempty, in time that grows with the square of the target's distance from
the region.
"""


class MdcrtError(Exception):
    """Base class for all library errors."""


class SingularMatrix(MdcrtError):
    """A nonsingular matrix was required but det = 0 (including ``hnf`` of a
    square matrix and the left divisor of ``IntMatrix.left_quotient``)."""


class DimensionMismatch(MdcrtError):
    """Operands have incompatible dimensions."""


class DimensionUnsupported(MdcrtError):
    """Operation only implemented up to a fixed dimension (SVP/CVP: D <= 4)."""


class RankDeficient(MdcrtError):
    """A D x K block has rank below D (``hnf`` of a block)."""


class Inconsistent(MdcrtError):
    """A congruence system has no solution (incompatible remainders)."""


class DuplicateModuli(MdcrtError):
    """A robust instance requires distinct moduli."""


class NotAnLcrm(MdcrtError):
    """The supplied matrix is not a least common right multiple of the moduli."""


class GroupConditionFailed(MdcrtError):
    """A declared group's reduced lcrm has a non-diagonal Hermite normal form."""


class CoverageIncomplete(MdcrtError):
    """A stage's groups do not cover all moduli of that stage."""


class DuplicateOutput(MdcrtError):
    """Two group outputs generate the same lattice, one congruence is redundant."""


class NotPrime(MdcrtError):
    """A prime integer was required."""


class ConfigInvalid(MdcrtError):
    """An experiment configuration is malformed or self-contradictory."""
