"""Exception types shared across the package."""


class GraphBoError(Exception):
    """Base class for all graphbo errors."""


# graph construction / validation

class NonSquareError(GraphBoError):
    """Adjacency matrix is not square or not binary."""


class SelfLoopError(GraphBoError):
    """Adjacency matrix has a nonzero diagonal entry."""


class AsymmetricUndirectedError(GraphBoError):
    """Undirected graph with an asymmetric adjacency matrix."""


class BadOneHotError(GraphBoError):
    """A node's label block is not a one-hot row."""


class DisconnectedError(GraphBoError):
    """Graph is not (strongly) connected."""


# domain handling

class InvalidSizeBoundsError(GraphBoError):
    """Size bounds violate 1 <= n_min <= n."""


class DomainTooLargeError(GraphBoError):
    """Domain exceeds the exhaustive-enumeration bit cap."""


class SamplingExhaustedError(GraphBoError):
    """Feasible-graph sampling hit its attempt budget."""


class InfeasibleDomainError(GraphBoError):
    """Domain constraints are trivially contradictory."""


# kernels / GP

class MissingVarianceError(GraphBoError):
    """Exponential kernel variant used without a variance parameter."""


class DimensionMismatchError(GraphBoError):
    """Feature matrices or label schemes are incompatible."""


class IncompatibleDomainError(DimensionMismatchError):
    """Domain does not match the model's label/feature scheme or
    directedness."""


class FactorizationError(GraphBoError):
    """Cholesky factorization failed even after adding jitter."""


class UnfittedModelError(GraphBoError):
    """Operation requires a fitted GP model."""


# MIP encoding / solving

class UnsupportedBoundedSizeExportError(GraphBoError):
    """File export is only available for fixed-size models."""


class MissingVariableError(GraphBoError):
    """Assignment does not cover every declared variable."""


class SpaceTooLargeError(GraphBoError):
    """Exhaustive feasibility count exceeds the assignment cap."""


# objectives

class UnknownOracleError(GraphBoError):
    """Requested synthetic objective name is not registered."""
