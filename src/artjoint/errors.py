"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ArtjointError`, so callers
(and the CLI) can separate domain failures from genuine bugs.
"""


class ArtjointError(Exception):
    """Base class for all errors this package raises deliberately."""


class AssetSyntaxError(ArtjointError):
    """Malformed asset/scenario/fitspec JSON (bad shape, type, or unknown key).

    ``location`` is a JSON-path-ish string such as ``joints[0].axis``;
    ``message`` is the text without it.
    """

    def __init__(self, message: str, location: str = ""):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class AssetValidationError(ArtjointError):
    """An assembly violates a structural invariant (catch-all for codes that
    have no dedicated class below)."""


class MissingModuleError(AssetValidationError):
    """A joint or marker references a module id that does not exist."""


class InvalidLimitsError(AssetValidationError):
    """Joint limits are inverted or otherwise unusable."""


class CyclicStructureError(AssetValidationError):
    """The module/joint graph is not a tree rooted at root_module."""


class NonUnitAxisError(AssetValidationError):
    """A joint axis is not unit length (tolerance 1e-9)."""


class UnresolvedReferenceError(AssetValidationError):
    """A behavior rule names a joint/module its assembly lacks, or no effects."""


class UnknownJointError(ArtjointError):
    """A joint reference does not resolve."""


class UnknownMarkerError(ArtjointError):
    """A marker reference does not resolve (or is ambiguous)."""


class NonPositiveDtError(ArtjointError):
    """Integration timestep must be strictly positive."""


class UnstableDtError(AssetSyntaxError, ValueError):
    """Integration timestep exceeds the stepper's stability guard."""


class SignalLoopError(ArtjointError):
    """A same-tick signal chain exceeded the resolution depth cap (16)."""


class DisjointTimeSpansError(ArtjointError):
    """Two trajectories share no overlapping time span."""


class MalformedCsvError(ArtjointError):
    """A trajectory CSV has a bad header, row width, or non-numeric cell."""


class ActionOutOfBoundsError(ArtjointError):
    """An environment action exceeds the configured magnitude bound."""


class InsufficientDataError(ArtjointError):
    """Too few observed samples to pose a fit problem (need at least 10)."""
