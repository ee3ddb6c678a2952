"""Exception types shared across the package."""


class CfnFormatError(ValueError):
    """Raised when a CFN file or in-memory CFN violates the schema.

    The message names the offending field or table.
    """


class CapacityError(ValueError):
    """Raised when an instance exceeds a documented size cap.

    Caps are explicit rather than silent truncation points: 2^24
    entries in any one table of an exact landscape (the states of an
    enumeration, each table of a min-sum elimination), 26 coordinates
    per Walsh transform, so 2^26 choices per variable, and 16 per
    smoothness scan.  A smoothness scan at its cap takes 0.3 s and
    peaks at 26 MiB under tracemalloc (2-core Xeon, numpy 2.4).
    """
