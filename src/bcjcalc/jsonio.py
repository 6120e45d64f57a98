"""The JSON documents of bcjcalc: curve catalogs (docs/schemas/catalog.json) and
linking matrices (linking_matrix.json) read, the sigma and rho values of `eval`
written.  Only `eval` and `verify --linking-matrix` import this module."""

import json
import sys

from .bcjmap import BPMap, Descriptor, SeparatingTwist
from .boolring import BoolPoly
from .cassonmorita import CMPoly, LinkingMatrix
from .errors import CatalogError, ConsistencyError
from .surface import HClass, ZHClass, ZSubsurfaceBasis, check_genus

Entry = tuple[Descriptor, ZSubsurfaceBasis | None]  # the basis is None unless "integral"


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past CPython's cap on str-to-int digits; say so without its advice
        digits, cap = len(text) - text.startswith("-"), sys.get_int_max_str_digits()
        raise ValueError(f"an integer has {digits} digits, more than the {cap} allowed") from None


def _load(path: str) -> tuple[bytes, object]:
    """The bytes of the file at path and their JSON; a parse failure is a ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, json.loads(raw, parse_int=_parse_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc


def _check_list(value, n: int | None, want: str) -> None:
    """Raise TypeError `want`, saying what value is, unless it is a list (of n items if n)."""
    if not isinstance(value, list) or n is not None and len(value) != n:
        got = f"a list of {len(value)}" if isinstance(value, list) else type(value).__name__
        raise TypeError(f"{want}, got {got}")


def _entry_from_json(genus: int, data, k: int) -> Entry:
    """Catalog entry k's descriptor and integral basis; a fault is a CatalogError naming it."""
    label = data.get("label", "") if isinstance(data, dict) else None
    where = f"entry {k}" + (f" ({label})" if isinstance(label, str) and label else "")
    try:
        if not isinstance(data, dict):
            raise TypeError("entry must be an object")
        kind = data.get("type")
        if kind not in ("separating", "bp"):
            raise ValueError(f"unknown type {kind!r}")
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {type(label).__name__}")
        integral = data.get("integral", False)
        if not isinstance(integral, bool):
            raise TypeError(f"integral must be a boolean, got {type(integral).__name__}")
        if "basis" not in data:
            raise ValueError("missing field 'basis'")
        _check_list(data["basis"], None, "basis must be a list of [A, B] coordinate pairs")
        if kind == "bp" and "C" not in data:
            raise ValueError("bp entry is missing C")
        if kind == "bp" and integral:
            raise ValueError("integral evaluation needs a separating entry")
        n = 2 * genus
        for j, pair in enumerate(data["basis"]):
            _check_list(pair, 2, f"basis[{j}] must be an [A, B] pair")
            for i, coords in enumerate(pair):
                _check_list(coords, n, f"basis[{j}][{i}] must be a list of {n} coordinates")
        if kind == "bp":
            _check_list(data["C"], n, f"C must be a list of {n} coordinates")
        zpairs = tuple(tuple(ZHClass.from_coords(genus, c) for c in pair) for pair in data["basis"])
        zbasis = ZSubsurfaceBasis(genus, zpairs)
        if kind == "separating":
            descriptor = SeparatingTwist(zbasis.mod2(), label)
        else:
            descriptor = BPMap(zbasis.mod2(), HClass.from_coords(genus, data["C"]), label)
        if integral:
            zbasis.validate()
        return descriptor, zbasis if integral else None
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"{where}: {exc}") from exc


def catalog_from_json(data, max_genus: int) -> tuple[int, list[Entry]]:
    """A catalog's genus, checked before any entry is read, and the `Entry` of each entry."""
    try:
        if not isinstance(data, dict) or "genus" not in data:
            raise TypeError("catalog must be an object with a genus field")
        g = check_genus(data["genus"])
        if g > max_genus:
            raise ValueError(f"genus {g} is above the maximum {max_genus}")
        if "entries" not in data:
            raise ValueError("catalog must have an entries list")
        if not isinstance(data["entries"], list):
            raise TypeError(f"entries must be a list, not {type(data['entries']).__name__}")
    except (TypeError, ValueError) as exc:
        raise CatalogError(str(exc)) from exc
    return g, [_entry_from_json(g, entry, k) for k, entry in enumerate(data["entries"])]


def read_catalog(path: str, max_genus: int) -> tuple[str, int, list[Entry]]:
    """The sha256 of the catalog file at path and `catalog_from_json` of its JSON."""
    import hashlib  # only eval digests its input; a cold import costs every command

    try:
        raw, data = _load(path)
    except ValueError as exc:
        raise CatalogError(str(exc)) from exc
    return hashlib.sha256(raw).hexdigest(), *catalog_from_json(data, max_genus)


def linking_matrix_from_json(data) -> LinkingMatrix:
    """The matrix of a linking-matrix document; any fault is a ConsistencyError."""
    try:
        if not isinstance(data, dict):
            raise TypeError("linking matrix must be a JSON object")
        genus, rows = check_genus(data["genus"]), data["matrix"]
        _check_list(rows, None, "matrix must be a list of rows")
        for p, row in enumerate(rows):
            _check_list(row, None, f"matrix row {p} must be a list")
        return LinkingMatrix.from_rows(genus, rows)
    except KeyError as exc:
        raise ConsistencyError(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConsistencyError(str(exc)) from exc


def read_linking_matrix(path: str, genus: int) -> LinkingMatrix:
    """The linking matrix of the given genus in the file at path, or a ConsistencyError."""
    try:
        data = _load(path)[1]
    except ValueError as exc:
        raise ConsistencyError(str(exc)) from exc
    if (L := linking_matrix_from_json(data)).genus != genus:
        raise ConsistencyError(f"genus {L.genus} does not match --g {genus}")
    return L


def poly_to_json(p: BoolPoly) -> list[list[int]]:
    """Sorted list of monomials, each a sorted list of variable indices."""
    return [list(m.variables()) for m in p.monomials()]


def cmpoly_to_json(x: CMPoly) -> list[dict]:
    """Terms by degree, then monomial: coefficient and list of [p, q] symbols."""
    mons = sorted(x.terms, key=lambda m: (len(m), m))
    return [{"coeff": x.terms[m], "monomial": [list(s) for s in m]} for m in mons]
