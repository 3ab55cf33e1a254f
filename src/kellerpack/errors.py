"""Exception hierarchy for kellerpack.

Every error raised by the library derives from KellerpackError so callers
can catch library failures without catching programming errors.
"""


class KellerpackError(Exception):
    pass


# --- partitions ---------------------------------------------------------

class OverlapError(KellerpackError):
    """Two blocks of a would-be partition share an element."""


class CoverageError(KellerpackError):
    """The blocks do not cover the full ground set."""


class EmptyBlockError(KellerpackError):
    """A partition block is empty."""


class AxisMismatchError(KellerpackError):
    """Operands live on ground sets of different sizes."""


class NotProperSubfamilyError(KellerpackError):
    """A subfamily of blocks is empty or equal to the whole partition."""


class IndependenceError(KellerpackError):
    """Two partitions on the same axis are not independent."""


class DuplicateError(KellerpackError):
    """The same partition was supplied twice."""


# --- box families -------------------------------------------------------

class SystemMismatchError(KellerpackError):
    """Operands belong to different partition systems."""


class EmptyFamilyError(KellerpackError):
    """A nonempty family was required."""


class DuplicateBoxError(KellerpackError):
    """A box family contains the same box twice."""


class NotKellerError(KellerpackError):
    """The family violates Keller's condition."""


class TrivialPartitionError(KellerpackError):
    """The trivial partition is not a valid argument here."""


class NotPileError(KellerpackError):
    """The family is not a pile (laminated suit for a cylinder)."""


class NotHiddenError(KellerpackError):
    """The named partition is not hidden in the family."""


class CompletenessError(KellerpackError):
    """A line-induced partition uses known blocks but is not in the family."""


class NotPartitionError(KellerpackError):
    """The family is not a partition of the point set."""


# --- multipiles ---------------------------------------------------------

class IllFormedTreeError(KellerpackError):
    """A multipile tree does not match its partition system."""


class DisjointnessError(KellerpackError):
    """Sibling subtrees hide overlapping partition sets on a shared axis."""


# --- hat embedding ------------------------------------------------------

class PreconditionError(KellerpackError):
    """A stated precondition of a compound check failed."""


# --- torus tilings ------------------------------------------------------

class InvalidTilingError(KellerpackError):
    """The start set is not an exact cube tiling of the torus."""


class NonUniformTorusError(KellerpackError):
    """The operation requires all torus side lengths to be equal."""


class RecipeError(KellerpackError):
    """A lamination recipe is malformed or reuses a sibling offset."""


# --- enumeration / CLI --------------------------------------------------

class BudgetExceededError(KellerpackError):
    """The requested grid exceeds the configured cell budget."""


class TheoremViolationError(KellerpackError):
    """A proved theorem failed on concrete data: a library bug."""
