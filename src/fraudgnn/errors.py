"""Exception types shared across the package."""


class FraudGnnError(Exception):
    """Base class for all package errors."""


class InputError(FraudGnnError, ValueError):
    """Invalid caller-supplied data (duplicate ids, length mismatches, ...)."""


class ConfigError(FraudGnnError, ValueError):
    """Invalid or unknown configuration (bad keys, missing fields, bad values)."""


class ShapeError(FraudGnnError, ValueError):
    """Tensor shape mismatch; the message names both shapes."""


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
