"""Shared exception types.

All errors caused by bad user input (malformed model files, bad scripts,
references to unknown names) derive from :class:`InputError`, so the CLI can
map them uniformly to exit code 2.
"""


class InputError(Exception):
    """Base class for errors caused by invalid input data."""


class EncodingError(InputError):
    """An input file is not valid UTF-8."""
