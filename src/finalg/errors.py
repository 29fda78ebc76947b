"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatch(EngineError):
    pass


class ValueOutOfRange(EngineError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class DuplicateSymbol(EngineError):
    pass


class UnknownSymbol(EngineError):
    pass


class SizeMismatch(EngineError):
    pass


class SizeOverflow(EngineError):
    pass


class CarrierTooLarge(EngineError):
    pass


class UnknownSuite(EngineError):
    pass


class InvalidPrimeList(EngineError):
    pass


class AxiomViolation(EngineError):
    """A designated structure (e.g. a semiring view) fails one of its axioms."""


class ParseError(EngineError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
