"""Exception types shared across the toolkit."""


class RelcorError(Exception):
    """Base class for all toolkit errors."""


class SpaceMismatchError(RelcorError):
    """Two relations (or a relation and a state) live on different state spaces."""


class CapacityError(RelcorError):
    """An enumeration would exceed the size cap, `space.DEFAULT_CAP`."""


class NonDeterministicError(RelcorError):
    """A deterministic relation was required but the argument is not a function."""


class ParseError(RelcorError):
    """Syntax or scoping error in program or predicate source."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class EmptySuiteError(RelcorError):
    """Test selection produced no inputs."""


class PatchError(RelcorError):
    """A patch site does not address a node of the expected kind."""
