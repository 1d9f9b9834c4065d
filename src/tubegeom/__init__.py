"""tubegeom: numerical geometry of adapted tube complexifications.

Modules by theme:

* ``liealg``     -- matrix Lie algebra/group contexts and numerics
* ``curvature``  -- curvature tensors, normal-coordinate jets, FD oracle
* ``jets``       -- truncated polynomial (jet) arithmetic
* ``majet``      -- tube-potential expansion and Monge-Ampere residuals
* ``kahler``     -- curvature of the tube Kahler metric at the zero section
* ``complexify`` -- group/coset complexification maps and holomorphy checks
* ``nahm``       -- discretized path space: one configuration type for points
                    and tangent vectors, Nahm flows, gauge actions, the flat
                    hyperkahler forms
* ``cli``        -- verification-suite command line driver
"""

from . import errors
from .curvature import (CurvatureTensor, MetricChart, chart_from_metric_jet,
                        constant_curvature, curvature_from_chart,
                        normal_metric_jet, random_admissible, sectional,
                        sphere_chart, sphere_product)
from .jets import JetPolynomial
from .kahler import (KahlerCurvatureAtZero, kahler_curvature_at_zero,
                     kahler_curvature_from_jet, negative_plane_witness,
                     plane_sectional)
from .liealg import (GroupElement, LieAlgebraContext, adjoint, bracket,
                     builtin_context, group_exp, group_log)
from .majet import (QuarticCoefficients, ma_residual, potential_expansion,
                    solve_quartic_coefficients)
from .nahm import (GaugePath, NahmConfiguration, adapted_roundtrip,
                   baby_nahm_residual, circle_action, embed_tangent,
                   gauge_transform, integrate_nahm, kahler_potential,
                   l2_metric, moment_map, nahm_residual, omega_I,
                   solve_gauge_ode)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
