"""Exception types shared across the package."""


class CfnFormatError(ValueError):
    """Raised when a CFN file or in-memory CFN violates the schema.

    The message names the offending field or table.
    """


class CapacityError(ValueError):
    """Raised when an instance exceeds a documented size cap.

    Caps are explicit (2^24 states for exhaustive enumeration, 26
    coordinates per Walsh transform, 16 per smoothness scan) rather
    than silent truncation points.  A smoothness scan at its cap takes
    0.3 s and peaks at 26 MiB under tracemalloc (2-core Xeon, numpy
    2.4).
    """
