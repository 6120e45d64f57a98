"""Desk-scale computational algebra for the mod-2 and integral homomorphisms
of the Torelli group: square-free polynomials, twist formulas, abelian-cycle
images in the wedge square, and the linking-symbol algebra."""

__version__ = "0.1.0"

from .boolring import BoolMonomial, BoolPoly, SelfLinkingForm, b2_basis, bar, evaluate
from .bcjmap import BPMap, SeparatingTwist, is_index_matched, sigma_bp, sigma_separating
from .wedgespan import (
    AbelianCycle,
    WedgeElem,
    cycle_image,
    dims,
    image_rank_report,
    orbit_classes,
    wedge,
)
from .cassonmorita import (
    CMPoly,
    LinkingMatrix,
    cm_generator,
    epsilon,
    mu,
    rho_separating,
    selflink_eval,
    verify_diagrams,
)
from .gf2core import F2Matrix, SpanBasis
from .surface import (
    HClass,
    SubsurfaceBasis,
    ZHClass,
    ZSubsurfaceBasis,
    intersect,
    is_symplectic_basis,
    random_symplectic_rebase,
    support,
)

__all__ = [
    "__version__",
    "AbelianCycle",
    "BoolMonomial",
    "BoolPoly",
    "BPMap",
    "CMPoly",
    "F2Matrix",
    "HClass",
    "LinkingMatrix",
    "SelfLinkingForm",
    "SeparatingTwist",
    "SpanBasis",
    "SubsurfaceBasis",
    "WedgeElem",
    "ZHClass",
    "ZSubsurfaceBasis",
    "b2_basis",
    "bar",
    "cm_generator",
    "cycle_image",
    "dims",
    "epsilon",
    "evaluate",
    "image_rank_report",
    "intersect",
    "is_index_matched",
    "is_symplectic_basis",
    "mu",
    "orbit_classes",
    "random_symplectic_rebase",
    "rho_separating",
    "selflink_eval",
    "sigma_bp",
    "sigma_separating",
    "support",
    "verify_diagrams",
    "wedge",
]
