"""Closure and density classification of polynomial ideals in Bergman spaces.

The package decides, for an ideal I in C[z1, z2] and a Reinhardt domain
|z1|^p + |z2|^q < 1, whether I lands in the Bergman space as a closed
subspace, a dense one, or neither, and backs each verdict with a numeric
certificate (an intersection witness or a dilation-based density estimate).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .polyalg import (  # noqa: F401
    BiPoly,
    GaussRational,
    PolyFormatError,
    ideal_from_json,
    load_ideal,
    load_poly,
    poly_from_json,
    poly_to_json,
)
from .rootfind import (  # noqa: F401
    FiberPoly,
    RootFindError,
    TrackError,
    all_roots,
    solve_fibers,
    track,
)
from .bergman import (  # noqa: F401
    DensityCertificate,
    DomainError,
    DomainSpec,
    MissingNormError,
    MonomialNormTable,
    RatioBoundReport,
    density_certificate,
    kernel_diag,
    monomial_norm,
    projection_distances,
    ratio_sup,
)
from .decompose import (  # noqa: F401
    CurveComponent,
    DecomposeError,
    IsolatedPoint,
    VarietyDecomposition,
    decompose_curve,
    decompose_ideal,
)
from .nullsatz import (  # noqa: F401
    CLOSED,
    DENSE,
    INCONCLUSIVE,
    NEITHER,
    ClosureVerdict,
    IntersectionResult,
    aggregate_verdicts,
    classify,
    intersect_curve,
    intersect_point,
)
from .hopf import (  # noqa: F401
    BallRatioReport,
    HopfRotation,
    RotationSearchError,
    ball_ratio_sup,
    circle_min_modulus,
    find_rotation,
)
from .config import RunConfig  # noqa: F401
