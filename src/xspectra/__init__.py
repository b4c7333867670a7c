"""Exceptional-orthogonal-polynomial spectra for complex-shifted solvable models.

The package builds the X1 Laguerre and X1 Jacobi families from their
differential equations, transforms them into Schrodinger data through a
point canonical transformation engine, and checks the resulting complex
potentials numerically: orthogonality, zero patterns, similarity
relations, and grid spectra.
"""

from .errors import (
    ArgumentError,
    BranchCutError,
    ConsistencyError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    FactorizationError,
    PoleError,
    SingularityError,
)
from .models import (
    PotentialModel,
    energy,
    potential,
    pseudo_hermiticity_residual,
    pt_symmetry_residual,
    quasi_hermiticity_residual,
    validate_params,
    wavefunction,
)
from .numerics import (
    EigenResult,
    TridiagonalOperator,
    discretize,
    eigen_near_shift,
    gram_matrix,
    lowest_eigenvalues,
    schrodinger_residual,
    tridiagonal_from_potential,
)
from .pct import (
    GMap,
    PotentialExtraction,
    extract_potential_report,
    pct_e_minus_v,
    pct_extract_potential,
    pct_wavefactor,
)
from .polycore import (
    Polynomial,
    Quadrature,
    count_real_roots_in,
    finite_quadrature,
    gamma,
    integrate,
    semi_infinite_algebraic_quadrature,
    semi_infinite_exp_quadrature,
)
from .xop import (
    OdeCoefficients,
    X1Family,
    x1_laguerre_norm,
    x1_ode_coefficients,
    x1_polynomial,
    x1_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BranchCutError",
    "ConsistencyError",
    "ConstructionError",
    "ConvergenceError",
    "DomainError",
    "EvaluationError",
    "FactorizationError",
    "PoleError",
    "SingularityError",
    "PotentialModel",
    "energy",
    "potential",
    "pseudo_hermiticity_residual",
    "pt_symmetry_residual",
    "quasi_hermiticity_residual",
    "validate_params",
    "wavefunction",
    "EigenResult",
    "Quadrature",
    "TridiagonalOperator",
    "discretize",
    "eigen_near_shift",
    "finite_quadrature",
    "gram_matrix",
    "integrate",
    "lowest_eigenvalues",
    "schrodinger_residual",
    "semi_infinite_algebraic_quadrature",
    "semi_infinite_exp_quadrature",
    "tridiagonal_from_potential",
    "GMap",
    "PotentialExtraction",
    "extract_potential_report",
    "pct_e_minus_v",
    "pct_extract_potential",
    "pct_wavefactor",
    "Polynomial",
    "count_real_roots_in",
    "gamma",
    "OdeCoefficients",
    "X1Family",
    "x1_laguerre_norm",
    "x1_ode_coefficients",
    "x1_polynomial",
    "x1_weight",
    "__version__",
]
