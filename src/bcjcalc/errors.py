"""Exception types shared across the package, and a JSON reader raising them."""

import json


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
    """A curve-catalog entry does not match the documented schema."""


def read_json(path: str, error_type: type[ValueError]) -> tuple[bytes, object]:
    """The bytes of the file at path and the JSON they hold; a file that does
    not parse, too deep a nesting included, raises error_type."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise error_type(f"not valid JSON: {exc}") from exc
