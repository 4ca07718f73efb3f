"""Exception hierarchy shared by all mfgnet modules."""


class MFGNetError(Exception):
    """Base class for every error raised by this package."""


# --- network construction ---------------------------------------------------

class DisconnectedGraph(MFGNetError):
    """The vertex/edge set does not form a single connected component."""


class ExitNotDegreeOne(MFGNetError):
    """The designated exit vertex must have exactly one incident edge."""


class SelfLoop(MFGNetError):
    """An edge connects a vertex to itself."""


class NonfiniteChord(MFGNetError):
    """An edge's end vertices are too far apart for a float chord or length."""


class NonpositiveLength(MFGNetError):
    """An edge was given a length <= 0."""


class DanglingEdgeEndpoint(MFGNetError):
    """An edge references a vertex id that does not exist."""


# --- discretization ----------------------------------------------------------

class StepTooCoarse(MFGNetError):
    """Requested spatial step exceeds the shortest edge."""


class StepTooFine(MFGNetError):
    """Requested spatial step needs more grid nodes or time levels than the
    memory bound allows."""


class ZeroMass(MFGNetError):
    """A density with zero (or negative) total mass cannot be normalized."""


# --- time stepping -----------------------------------------------------------

class CflViolation(MFGNetError):
    """dt / h^2 exceeds the explicit-scheme stability bound of 1/2."""


class NonpositivePhi(MFGNetError):
    """The backward solution is not strictly positive; the forward stage
    cannot divide by it."""


class NumericalFailure(MFGNetError):
    """Non-finite values appeared in the solution."""


class StepTooLarge(MFGNetError):
    """A particle step crossed too many vertices: the time step dt is too large."""


# --- configuration -----------------------------------------------------------

class ParseError(MFGNetError):
    """Config text is not valid JSON; message carries line/column."""


class ValidationError(MFGNetError):
    """Config parsed but a field is missing, unknown, or out of range."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
