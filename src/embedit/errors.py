"""Exception types shared across the package, the one rule that names an
input in the errors found in it (reading) and the JSON reader that
follows it, the one check of a JSON object's keys and value types, and the
one rule each for a number and for a row id handed in."""

import json
import math
import sys
from contextlib import contextmanager

import numpy as np


class EmbeditError(Exception):
    """Base class for every error raised by this package."""


class DataError(EmbeditError):
    """Input data is malformed or does not fit; the CLI exits with code 2."""


class DimensionError(EmbeditError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(EmbeditError, ValueError):
    """A computed value overflowed or became NaN."""


class TapeUsageError(EmbeditError):
    """A tape was queried outside its recording contract."""


class UnknownTokenError(DataError):
    """A word is absent from both the vocabulary and the split table."""


class EmptyPromptError(DataError):
    """Prompt is empty after lowercasing and whitespace normalization."""


class PromptTooLongError(DataError):
    """Tokenized prompt (including BOS/EOS) does not fit the context window."""


class ArchiveFormatError(DataError):
    """Weight archive violates the container format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InconsistentRequestError(DataError):
    """Edit request whose target tokens do not all occur in its source prompt."""


class DegenerateInputError(DataError):
    """Inputs are degenerate for the requested computation."""


class DegenerateDataError(DataError):
    """Dataset cannot support the requested fit (for example, one class only)."""


class DegenerateVectorError(DataError):
    """A vector that must have nonzero norm is zero."""


class DivergenceError(EmbeditError):
    """Optimization produced a non-finite loss or parameter value."""

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class DatasetError(DataError):
    """An evaluation dataset entry violates its declared shape."""


class LedgerRangeError(EmbeditError):
    """Revert depth exceeds the number of ledger entries."""


class LedgerFormatError(DataError):
    """A ledger is malformed or does not fit the table it would be applied to."""


@contextmanager
def reading(where, error: type[Exception]):
    """Name an input in the errors found in it, read or used: an `error` or a
    ValueError raised inside becomes an `error` whose message starts with
    `where` (the input's path, or "path: line n") and keeps the raised
    error's attributes, such as an ArchiveFormatError's offset. A
    NonFiniteError passes through unchanged: a blow-up is not bad data."""
    try:
        yield
    except NonFiniteError:
        raise
    except (error, ValueError) as e:
        named = error(f"{where}: {e}")
        named.__dict__.update(vars(e))
        raise named from e


def read_json(path, error: type[Exception], parse=None):
    """parse() of a UTF-8 JSON file's value (without parse, the value),
    under reading(path, error): bytes that are not UTF-8 JSON, and what
    parse() rejects, raise `error` naming the file. OSError passes through."""
    with open(path, "rb") as f, reading(path, error):
        value = parse_json(f.read(), error)
        return parse(value) if parse else value


def parse_json(data: bytes, error: type[Exception]):
    """The parsed value of UTF-8 JSON bytes; bytes that are not UTF-8 or not
    JSON raise `error`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError, JSONDecodeError
        raise error(f"not UTF-8 JSON: {e}") from e


def json_object(obj, kinds: dict[str, tuple[type, ...]], error, where: str,
                optional=()) -> dict:
    """obj, which must be a JSON object with exactly the keys of `kinds`
    (a key in `optional` may be left out), each value of one of the types
    kinds[key]; the type must match exactly, so a bool is not an int. A
    violation raises error(message), the message prefixed by `where` and
    naming the missing, unknown or mistyped key."""
    if type(obj) is not dict:
        raise error(f"{where}: need a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in kinds:
            raise error(f"{where}: unknown key {key!r}")
    for key, types in kinds.items():
        if key not in obj:
            if key not in optional:
                raise error(f"{where}: missing key {key!r}")
        elif type(obj[key]) not in types:
            raise error(f"{where}: key {key!r} has type {type(obj[key]).__name__}")
    return obj


def is_integer(x) -> bool:
    """A Python or numpy integer, not a bool: True would silently stand for 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_number(name: str, value, low, high=math.inf, *, integer=False, open_low=False,
                 open_high=False):
    """value, if it lies in the interval from low to high (each end closed
    unless open_*) and is of the field's kind: for an integer field what
    is_integer accepts, for a real field a Python or numpy real, not a bool,
    whose magnitude is at most the largest float, which rejects NaN, the
    infinities and ints past float range. Otherwise ValueError naming the
    field, its interval and the value."""
    kind = is_integer(value) if integer else (
        isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max)
    if not (kind and (low < value if open_low else low <= value)
            and (value < high if open_high else value <= high)):
        interval = (f"{'(' if open_low else '['}{low}, {high}"
                    f"{')' if open_high or high == math.inf else ']'}")
        raise ValueError(f"{name} must be {'an integer in' if integer else 'in'} {interval}, "
                         f"got {value!r}")
    return value


def check_ids(ids, n, *, distinct=False, name=None) -> list[int]:
    """ids as a list of Python ints, if each is what is_integer accepts, lies
    in [0, n) and, with `distinct`, occurs once. Otherwise TypeError,
    IndexError or ValueError, tested in that order, naming the first bad id,
    after name(p) for the id at position p when `name` is given."""
    ids = list(ids)
    # Each test runs over all ids at C speed, the kind over one id of each
    # type; only a test that fails looks for its first bad id.
    if not all(map(is_integer, dict(zip(map(type, ids), ids)).values())):
        _fail(TypeError, ids, lambda i: not is_integer(i), "id {!r} is not an integer", name)
    ids = list(map(int, ids))
    if ids and not (0 <= min(ids) and max(ids) < n):
        _fail(IndexError, ids, lambda i: not 0 <= i < n, f"id {{}} is not in [0, {n})", name)
    if distinct and len(set(ids)) != len(ids):
        seen = set()
        _fail(ValueError, ids, lambda i: i in seen or seen.add(i), "repeated id {}", name)
    return ids


def _fail(error: type[Exception], ids: list, bad, message: str, name) -> None:
    p = next(p for p, i in enumerate(ids) if bad(i))
    raise error((f"{name(p)}: " if name else "") + message.format(ids[p]))
