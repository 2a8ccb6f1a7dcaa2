"""Exact center-focus analysis for planar polynomial vector fields."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    AngleStalled,
    CenterFocusError,
    DegreeMismatch,
    Inconsistent,
    LambdaZero,
    MissingParam,
    NonNormalizedLinearPart,
    NonRealInput,
    NotQuasiHomogeneous,
    ObstructionNonzeroAverage,
    OrderTooSmall,
    ParseError,
    PreconditionFailed,
    StepFailure,
    TimeBudgetExceeded,
    UnknownName,
    ZeroCurve,
)
from .poly import (
    BiPoly,
    ComplexCoeffs,
    HomogeneousPoly,
    R2,
    X,
    Y,
    circle_average,
    evaluate,
    from_complex,
    homogeneous_components,
    poisson_bracket,
    to_complex,
)
from .homological import (
    HomologicalSolution,
    apply_rotational,
    radial_power,
    solve_homological,
)
from .lyapunov import (
    H2,
    LyapunovResult,
    PlanarField,
    compute_lyapunov,
    lyapunov_function,
    residual,
)
from .structure import (
    HGDecomposition,
    SymmetryReport,
    WeakCenterResult,
    bautin_classify,
    constants_quasihomogeneous,
    detect_symmetries,
    hg_decompose,
    quasihomogeneous_parts,
    schlomiuk_classify,
    weak_center_check,
)
from .inverse import (
    CofactorCertificate,
    DarbouxCandidate,
    InverseSpec,
    build_field,
    complementary_residuals,
    devlin_integral,
    find_cofactor,
    hamiltonian_mismatch,
    verify_darboux,
    weak_center_family,
)
from .numeric import (
    CenterLike,
    FocusLike,
    PeriodSample,
    ReturnMapSample,
    Trajectory,
    find_equilibria,
    integrate,
    numeric_classify,
    period,
    return_map,
    write_csv,
)
from .catalog import CatalogEntry, FamilySignature, get, list_families

# the imports above are the one list of public names
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
