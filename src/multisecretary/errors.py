"""Exception types raised by the library, and the (n, k) feasibility check."""


class ModelError(ValueError):
    """Base class for domain validation failures."""


class NonDecreasingSupport(ModelError):
    """Support values are not strictly decreasing."""


class NonPositiveValue(ModelError):
    """Support contains a value that is not strictly positive."""


class BadPmf(ModelError):
    """Probability masses are malformed (negative, zero, or not summing to one)."""


class InfeasiblePair(ModelError):
    """A (horizon, budget) pair violates 0 <= k <= n."""


def check_pair(n: int, k: int, min_n: int = 0) -> None:
    """Raise :class:`InfeasiblePair` unless n >= ``min_n`` and 0 <= k <= n."""
    if n < min_n or not 0 <= k <= n:
        raise InfeasiblePair(f"(n={n}, k={k}) is not a feasible pair")


class CountMismatch(ModelError):
    """Realization counts do not line up with the distribution support."""


class TableMismatch(ModelError):
    """A value table does not cover the requested state or query."""


class NonMarkovPolicy(ModelError):
    """The policy does not expose the state-Markov selection-rate hook."""


class ProbabilityDrift(ModelError):
    """Forward propagation lost probability mass or produced an invalid cell."""


class DimensionMismatch(ModelError):
    """A probability matrix does not match the distribution or horizon."""


class BadDelta(ModelError):
    """Orbit half-width must satisfy 0 < delta < half the minimal mass."""


class BadEpsilon(ModelError):
    """Perturbation parameter is outside the range that keeps the pmf valid."""
