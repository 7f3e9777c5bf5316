"""Exception types shared across the package."""


class SkelfitError(Exception):
    """Base class for all skelfit errors."""


class SingularRotationError(SkelfitError):
    """Rotational component is numerically singular."""


class ParseError(SkelfitError):
    """Input file does not conform to the expected format."""


class MissingCellError(ParseError):
    """A (frame, body) pair is absent from a transform stream."""

    def __init__(self, frame: int, body: int):
        super().__init__(f"missing cell: frame={frame}, body={body}")
        self.frame = frame
        self.body = body


class DuplicateCellError(ParseError):
    """A (frame, body) pair appears more than once."""

    def __init__(self, frame: int, body: int, row: int):
        super().__init__(f"duplicate cell at row {row}: frame={frame}, body={body}")
        self.frame = frame
        self.body = body
        self.row = row


class DegenerateInputError(SkelfitError):
    """Not enough data to pose the problem (fewer than two frames)."""


class AllZeroError(SkelfitError):
    """Every singular value is zero; the system carries no information."""


class IncompleteMatrixError(SkelfitError):
    """Pairwise fit table has missing entries."""


class NotAdjacentError(SkelfitError):
    """The two joints do not share a body frame on the tree."""


class MissingRotationError(SkelfitError):
    """A joint rotation required for playback was not supplied."""


class InvalidSpecError(SkelfitError):
    """A synthetic-figure description is internally inconsistent."""
