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

from .jets import JetPolynomial

__version__ = "0.1.0"

__all__ = ["JetPolynomial"]
