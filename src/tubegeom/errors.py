"""Exception types shared across the library.

Every tolerance-gated contract failure raises one of these rather than a
bare ValueError, so callers (and the CLI harness) can tell configuration
mistakes apart from genuine numerical violations.
"""


class TubeGeomError(Exception):
    """Base class for all library errors."""


class ContextMismatch(TubeGeomError):
    """Operands belong to different Lie contexts or have incompatible shapes."""


class ClosureViolation(TubeGeomError):
    """A matrix fails to re-expand in the algebra basis within tolerance."""


class LogBranchFailure(TubeGeomError):
    """Principal matrix logarithm undefined (eigenvalue on the negative real axis)."""


class NoSplitConfigured(TubeGeomError):
    """The context has no subalgebra/complement split configured."""


class IndexOutOfRange(TubeGeomError, IndexError):
    """Tensor index outside [0, dimension)."""


class EqualIndices(TubeGeomError):
    """A plane was requested with two equal frame indices."""


class SymmetryViolation(TubeGeomError):
    """A curvature tensor fails its algebraic symmetry checks."""


class SingularMetric(TubeGeomError):
    """A metric chart is not positive-definite on the evaluation stencil."""


class DegenerateHessian(TubeGeomError):
    """The complex Hessian of a potential jet is singular at the base point."""


class MalformedInput(TubeGeomError):
    """Input does not have the shape or structure the operation requires."""


class SingularSystem(TubeGeomError):
    """An internal linear system that must be solvable turned out singular."""


class NotTangent(TubeGeomError):
    """A matrix is not tangent to the group at the given base point."""


class VectorNotInM(TubeGeomError):
    """A vector that must lie in the complement subspace has a subalgebra part."""


class GridMismatch(TubeGeomError):
    """Discretized paths live on different grids."""


class BlowupDetected(TubeGeomError):
    """A flow left the configured norm bound (finite-time blowup guard)."""


class UnknownSuite(TubeGeomError):
    """The requested verification suite is not registered."""


class ConfigParseError(TubeGeomError):
    """A run setting cannot be used (an ``--out`` that cannot be made a directory)."""
