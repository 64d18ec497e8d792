"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Problem data with inconsistent shapes (A vs b, G vs h, or vs n)."""


class ConvergenceError(RuntimeError):
    """A solve missed its tolerance: an iterative one hit its iteration
    cap, or an exact one failed the check of its result.

    The best point found is attached as ``best``.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class DivergenceError(RuntimeError):
    """Iterates blew past the divergence guard (norm > 1e12).

    The last iterate before the blow-up is attached as ``state``: an
    ``IterateState`` from an outer loop, the last point in P from the ALM
    baseline's inner loop, which iterates the one step kernel with p = 0.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class InfeasibleError(ValueError):
    """A constraint system required to be nonempty has no feasible point."""


class StepMismatchError(ValueError):
    """A state pair fails the one-step precondition of a certificate."""
