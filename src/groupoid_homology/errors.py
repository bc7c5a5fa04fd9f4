"""Exception types shared across the package.

Every type derives from GroupoidHomologyError and carries the exit code
that `ghom` returns for it: 2 for SchemaError, 3 for RankUnsupported and
1 for every other type. cli reads the code from the exception.
"""


class GroupoidHomologyError(Exception):
    """Base of the package's exceptions; exit_code is ghom's exit status."""

    exit_code = 1


class DimensionMismatch(GroupoidHomologyError, ValueError):
    """Matrix or vector shapes are incompatible with the requested operation."""


class NoIntegerSolution(GroupoidHomologyError, ValueError):
    """The linear system has no solution over the integers."""


class NonCommuting(GroupoidHomologyError, ValueError):
    """A family of matrices or permutations that must commute does not."""


class BrokenComplex(GroupoidHomologyError, RuntimeError):
    """A chain-complex consistency check failed.

    Raised only by the ghom single-vertex cross-check, and a bug when
    it is. koszul never raises it: a KoszulComplex refuses non-commuting
    endomorphisms when it is made (NonCommuting), and commutation makes
    d o d = 0.
    """


class NotACycle(GroupoidHomologyError, ValueError):
    """A vector passed as a cycle is not annihilated by the boundary map."""


class NotBijective(GroupoidHomologyError, ValueError):
    """A map on a finite set that must be a bijection is not one."""


class RankUnsupported(GroupoidHomologyError, ValueError):
    """The requested operation is gated to a range of ranks k."""

    exit_code = 3


class HypothesisViolated(GroupoidHomologyError, ValueError):
    """Input violates the hypotheses under which a closed form is valid."""


class SkeletonInvalid(GroupoidHomologyError, ValueError):
    """A skeleton failed validation; carries the list of findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))


class SchemaError(GroupoidHomologyError, ValueError):
    """An instance file does not conform to the documented JSON schema."""

    exit_code = 2
