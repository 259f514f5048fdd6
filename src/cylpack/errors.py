"""Exception types shared across the package."""


class CylpackError(Exception):
    """Base class for all package-specific failures."""


class DomainError(CylpackError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class DimensionMismatch(CylpackError, ValueError):
    """Vector, frame, or body dimensions are inconsistent."""


class RankDeficient(CylpackError):
    """Input vectors or points do not span the required subspace."""


class FullDimensional(CylpackError):
    """The orthogonal complement of a full frame is empty."""


class DegenerateBody(CylpackError):
    """A body's volume is numerically zero."""


class DegenerateProjection(DomainError):
    """A projected body has numerically zero volume."""


class UnsupportedDimension(DomainError):
    """The operation is only implemented for a restricted dimension range."""


class SamplingFailure(DomainError):
    """Rejection sampling acceptance fell below the workable threshold."""


class OnUnitSphere(CylpackError):
    """Pointwise density evaluation requested on the singular set."""


class ChordMissesBall(CylpackError):
    """The requested chord does not meet the open unit ball."""


class PlaneMissesSphere(CylpackError):
    """The requested plane does not meet the unit sphere."""


class HypothesisFailed(CylpackError):
    """Pre-verification failed; ``verdict`` is the failing
    ``multiplicity.VerificationResult``, whose ``to_json`` the CLI reports."""

    def __init__(self, reason: str, verdict=None):
        super().__init__(reason)
        self.verdict = verdict


class NotAPacking(HypothesisFailed):
    """Pre-verification failed: the family is not an r-fold packing."""


class NotACovering(HypothesisFailed):
    """Pre-verification failed: the family is not an r-fold covering."""


class NotNS(CylpackError):
    """The disk family is separable, so NS-only results do not apply."""
