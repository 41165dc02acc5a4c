"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Input arrays have inconsistent shapes (structural, not a constraint check)."""


class DomainError(ValueError):
    """An evaluation point lies outside the declared domain (state box or uncertainty set)."""


class NumericalError(ArithmeticError):
    """A computed flow or state is non-finite; carries the offending cell."""

    def __init__(self, message: str, cell: int | None = None):
        self.cell = cell
        super().__init__(message)


class InfeasibleInflow(ValueError):
    """Requested equilibrium inflow exceeds what a cell's subcritical branch can carry."""

    def __init__(self, cell: int, requested: float, capacity: float):
        self.cell = cell
        self.requested = requested
        self.capacity = capacity
        super().__init__(
            f"cell {cell + 1}: equilibrium flow {requested:.6g} exceeds the "
            f"maximum subcritical demand {capacity:.6g}"
        )


class NonUniformEquilibrium(ValueError):
    """The candidate equilibrium drifts with the uncertainty sample."""

    def __init__(self, cell: int, max_deviation: float):
        self.cell = cell
        self.max_deviation = max_deviation
        super().__init__(
            f"cell {cell + 1}: equilibrium flow varies with the disturbance "
            f"(max deviation {max_deviation:.3g}); no uniform equilibrium at this density"
        )


class StructuralError(RuntimeError):
    """The routing structure defeats a certificate construction: weights that
    no routing loss can strictly dominate, or a Gamma that is not triangular in
    topological order."""


class ThrottleBoundViolation(ValueError):
    """The sampled outflow lower bound came out nonpositive; carries the witness sample."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class TrappingInfeasible(ValueError):
    """The inflow floor is too large for a finite trapping-time bound."""


class MisuseError(ValueError):
    """An operation was invoked on an input class it is not meant for."""
