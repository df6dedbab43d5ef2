"""Exception types shared across the package."""


class LeafspanError(Exception):
    """Base class for every error raised by this package."""


class InvalidGraphError(LeafspanError, ValueError):
    """A graph value would violate a structural invariant."""


class InvalidParamsError(LeafspanError, ValueError):
    """Arguments outside an operation's declared domain."""


class NotConnectedError(LeafspanError, ValueError):
    """The operation requires a connected graph."""


class EdgeNotFoundError(LeafspanError, ValueError):
    """The named edge is not present in the graph."""


class NotALeafError(LeafspanError, ValueError):
    """A tree vertex expected to be a leaf is internal."""


class ChainTooLongError(LeafspanError, ValueError):
    """The graph's longest degree-2 chain exceeds the declared limit."""


class SearchExhaustedError(LeafspanError, RuntimeError):
    """A complete search found no witness; treated as a bug flag."""


class BoundNotMetError(LeafspanError, RuntimeError):
    """A constructed certificate missed its guaranteed bound; a bug flag."""


class InfeasibleError(LeafspanError, RuntimeError):
    """No graph satisfying the requested constraints was found."""


class ParseError(LeafspanError, ValueError):
    """Malformed textual input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelfLoopError(ParseError):
    """An input edge joins a vertex to itself."""


class DuplicateEdgeError(ParseError):
    """An input edge appears more than once."""
