"""Bernstein-type approximation operators: univariate bases, bivariate
Bernstein-Stancu operators on curvilinear domains, and piecewise
operators on the unit disk, with an RMSE experiment harness.
"""

from .univariate import (
    Interval,
    UNIT_INTERVAL,
    Transform1D,
    basis_classical,
    basis_row,
    basis_shifted,
    basis_shifted_derivative,
    basis_argmax,
    bernstein,
    bernstein_shifted,
    c_tau,
    c_tau_shifted,
    validate_transform,
)
from .bivariate import (
    vectorized,
    CurvilinearDomain,
    NodeSchedule,
    UNIT_SQUARE,
    lift,
    stancu,
    stancu_nodes,
    stancu_determinant,
    monomial_image,
    voronovskaja_probe,
)
from .disk import (
    Quadrant,
    square_bernstein,
    simplex_bernstein,
    ball_stancu,
    quadrant_stancu,
    quadrant_bernstein_type,
    piecewise_stancu_disk,
    piecewise_bernstein_type_disk,
    axis_continuity_check,
)
from .experiments import (
    BUILTINS,
    builtin,
    mesh_stancu_disk,
    mesh_quadrant_disk,
    disk_operator,
    rmse,
    run_example,
    cross_section,
)

__version__ = "0.1.0"
