"""Exception hierarchy shared by all floersurgery modules."""

from __future__ import annotations


class FloerError(Exception):
    """Base class for every error raised by this package."""


class InvalidPresentation(FloerError):
    """A graded U-presentation failed validation: ``fmod.validate`` names
    the first entry of U that is not of degree -2."""


class ModelError(FloerError):
    """A knot-model document failed validation.

    ``code`` is one of: Syntax, MonotonicityViolation, GenusViolation,
    MapNotEquivariant, SymmetryViolation, ParityMismatch, NonHomogeneousU.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class NotCoprime(FloerError):
    """p and q are not coprime, p < 1, or q < 1 where only positive slopes apply."""


class TruncationTooSmall(FloerError):
    """The truncated cone could not be certified stable in its depth."""


class TooLarge(FloerError):
    """An input over a size limit."""


class V0Zero(FloerError):
    """The V_0 slope bound only applies when V_0 > 0."""


class MissingGradings(FloerError):
    """A grading-based obstruction was invoked without grading data."""
