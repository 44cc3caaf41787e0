"""Exception hierarchy shared across the package, and ``check_number``, the
one type check that every settings class and the config loader apply.

Two families matter for the CLI exit-code contract: validation problems
(bad config, bad inputs, bad hyperparameters) exit with code 1, while
environmental or internal failures exit with code 2.
"""

from __future__ import annotations

import numbers

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class SpecLabError(Exception):
    """Base class for all package errors."""

    exit_code: int = EXIT_VALIDATION


class ConfigError(SpecLabError):
    """A run configuration is malformed, has unknown keys, or fails validation."""


class EmptyCorpus(SpecLabError):
    """The training corpus contains no tokens."""


class InvalidOrder(SpecLabError):
    """An n-gram order below 1 was requested."""


class UnknownToken(SpecLabError):
    """Text cannot be encoded because a token is not in the vocabulary."""


class IoError(SpecLabError):
    """A file could not be read or written, or its payload is not parseable."""

    exit_code = EXIT_RUNTIME


class SchemaVersionMismatch(SpecLabError):
    """An on-disk artifact names a schema version this build does not support."""


class NoMaskedSlots(SpecLabError):
    """A denoise step was requested on a block with nothing left to unmask."""


class ZeroDraftProbability(SpecLabError):
    """Stochastic verification hit a drafted token with zero draft probability."""


class VocabularyMismatch(SpecLabError):
    """Target and drafter models do not share a vocabulary."""


class InvalidAlpha(SpecLabError):
    """Acceptance rate outside the open interval (0, 1)."""


class InvalidTheoryParams(SpecLabError):
    """Speculation length, cost ratio, or block size out of range."""


class EmptyWorkload(SpecLabError):
    """A sweep was started with no prompts."""


class MissingTranscripts(SpecLabError):
    """Report rendering found no transcripts in the run directory."""


class EmptyTranscript(SpecLabError):
    """Summary statistics were requested for a transcript with no rounds."""


def check_number(value, kind: type, where: str, at_least: int | None = None):
    """Return ``value`` unchanged if it is an integer (``kind`` int) or a real
    number (``kind`` float), never a bool, no less than ``at_least`` when
    given; otherwise raise ``ConfigError`` naming ``where``."""
    whole = kind is int
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if whole else numbers.Real):
        raise ConfigError(f"{where} must be {'an integer' if whole else 'a number'}, got {value!r}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{where} must be >= {at_least}, got {value!r}")
    return value
