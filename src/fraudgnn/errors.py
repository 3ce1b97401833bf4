"""Exception types shared across the package, and the checks that raise
them from more than one module."""

import numpy as np


class FraudGnnError(Exception):
    """Base class for all package errors."""


class InputError(FraudGnnError, ValueError):
    """Invalid caller-supplied data (duplicate ids, length mismatches, ...)."""


class ConfigError(FraudGnnError, ValueError):
    """Invalid or unknown configuration (bad keys, missing fields, bad values)."""


class ShapeError(FraudGnnError, ValueError):
    """Array shape mismatch; the message names both shapes."""


class IngestError(FraudGnnError, ValueError):
    """CSV ingestion failure with row/column diagnostics."""


class EvalError(FraudGnnError, ValueError):
    """Evaluation cannot proceed (e.g. single-class labels)."""


class TrainError(FraudGnnError, RuntimeError):
    """Training cannot proceed or diverged (degenerate data, non-finite loss)."""


class CheckpointError(FraudGnnError, ValueError):
    """Checkpoint file is malformed or incompatible with the data."""


def unreadable(what: str, path: str,
               exc: OSError | UnicodeDecodeError) -> InputError:
    """The error for an input file that cannot be opened or decoded."""
    reason = getattr(exc, "strerror", None) or exc
    return InputError(f"cannot read {what} {path}: {reason}")


def is_integer(value) -> bool:
    """An int or numpy integer that is not a bool."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def check_count(what: str, value, least: int):
    """ConfigError unless value is an integer (is_integer) >= least."""
    if not is_integer(value):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value}")
