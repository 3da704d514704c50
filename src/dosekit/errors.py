"""Shared exception hierarchy.

Every failure the toolkit raises deliberately derives from DosekitError, and the
CLI maps each kind of fault to an exit status: a ValidationError (bad
configuration or input) exits 2; a missing file (`volume.MissingFileError`), a
saved file that its reader refuses (`volume.FileFormatError`) and a stage's own
fault (a planner or phantom error) exit 3.
"""


class DosekitError(Exception):
    """Base class for all errors raised by dosekit."""


class ValidationError(DosekitError):
    """Invalid configuration, schema, or input-contract violation."""
