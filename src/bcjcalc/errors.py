"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Bit-vector lengths do not agree."""


class GenusMismatchError(ValueError):
    """Objects built over different surface genera were mixed."""


class BasisError(ValueError):
    """A claimed symplectic basis violates an intersection condition."""


class FiltrationError(ValueError):
    """A polynomial exceeds the degree cap required by the operation."""


class MatrixError(ValueError):
    """A substitution matrix does not preserve the symplectic form."""


class GeometryError(ValueError):
    """Curve data is homologically inconsistent (e.g. a bounding-pair
    class not orthogonal to its subsurface span)."""


class DisjointnessError(ValueError):
    """An abelian-cycle certificate failed its disjointness check."""


class ConsistencyError(ValueError):
    """A linking matrix violates the L^T - L = J constraint."""


class CatalogError(ValueError):
    """A curve catalog is not JSON or does not match the documented schema."""
