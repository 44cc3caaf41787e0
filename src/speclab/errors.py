"""Exception hierarchy shared across the package, and ``check_number``, the
one type check that every settings class and the config loader apply.

There is one class per CLI exit code: ``ConfigError`` covers every
validation problem (bad config, bad inputs, bad hyperparameters) and exits
with code 1, while ``IoError`` covers environmental failures and exits with
code 2. Both derive from ``SpecLabError``, which the CLI catches.
"""

from __future__ import annotations

import math
import numbers

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class SpecLabError(Exception):
    """Base class for all package errors."""

    exit_code: int = EXIT_VALIDATION


class ConfigError(SpecLabError):
    """Every validation failure (exit code 1): a malformed config or an
    unknown key, an empty corpus or workload, a token outside the vocabulary,
    an unsupported schema version, mismatched models, out-of-range theory
    parameters, or a transcript with no rounds."""


class IoError(SpecLabError):
    """A file could not be read or written, or its payload is not parseable."""

    exit_code = EXIT_RUNTIME


def check_number(value, kind: type, where: str, at_least: int | None = None):
    """Return ``value`` unchanged if it is an integer (``kind`` int) or a
    finite real number (``kind`` float), never a bool, no less than
    ``at_least`` when given; otherwise raise ``ConfigError`` naming ``where``.
    Python's ``json`` reads ``NaN``, ``Infinity`` and integers past the float
    range, so a config can hold them."""
    whole = kind is int
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if whole else numbers.Real):
        raise ConfigError(f"{where} must be {'an integer' if whole else 'a number'}, got {value!r}")
    if not whole:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{where} must be finite, got {value!r}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{where} must be >= {at_least}, got {value!r}")
    return value
