"""Exception types shared across the package."""


class EmbeditError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(EmbeditError):
    """Operand shapes do not satisfy an operation's contract."""


class TapeUsageError(EmbeditError):
    """A tape was queried outside its recording contract."""


class UnknownTokenError(EmbeditError):
    """A word is absent from both the vocabulary and the split table."""


class EmptyPromptError(EmbeditError):
    """Prompt is empty after lowercasing and whitespace normalization."""


class PromptTooLongError(EmbeditError):
    """Tokenized prompt (including BOS/EOS) does not fit the context window."""


class ArchiveFormatError(EmbeditError):
    """Weight archive violates the container format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InconsistentRequestError(EmbeditError):
    """Edit request whose target tokens do not all occur in its source prompt."""


class DegenerateInputError(EmbeditError):
    """Inputs are degenerate for the requested computation."""


class DegenerateDataError(EmbeditError):
    """Dataset cannot support the requested fit (for example, one class only)."""


class DegenerateVectorError(EmbeditError):
    """A vector that must have nonzero norm is zero."""


class DivergenceError(EmbeditError):
    """Optimization produced a non-finite loss or parameter value."""

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class DatasetError(EmbeditError):
    """An evaluation dataset entry violates its declared shape."""


class LedgerRangeError(EmbeditError):
    """Revert depth exceeds the number of ledger entries."""


class LedgerFormatError(EmbeditError):
    """A ledger entry does not fit the table it would be applied to."""
