"""Exception types shared across the package."""


class FlipspecError(Exception):
    """Base class for all errors raised by flipspec."""


class DomainError(FlipspecError, ValueError):
    """Evaluation point outside [-pi, pi]^d."""


class ParameterError(FlipspecError, ValueError):
    """Invalid numeric parameter or degenerate size."""


class AliasingError(FlipspecError, ValueError):
    """Quadrature too coarse for the requested coefficient band."""


class ShapeError(FlipspecError, ValueError):
    """Vector/matrix length does not match the multi-index dimensions."""


class CapacityError(FlipspecError, ValueError):
    """Dense materialization request beyond the size guard."""


class EvenSizeError(FlipspecError, ValueError):
    """Operation requires every level size to be even (or odd, where stated)."""


class SymmetryError(FlipspecError, ValueError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class PoleError(FlipspecError, ValueError):
    """Weight symbol vanishes at a sampling point."""


class NotSPDError(FlipspecError, ValueError):
    """Preconditioner is not (numerically) positive definite."""


class OperatorError(FlipspecError, RuntimeError):
    """Operator handed to the solver violates a probe check, or the
    Lanczos recurrence broke down before the residual target was met."""
