"""Domain errors raised across the pipeline.

The CLI maps any ``VerseBertError`` to exit code 1 and prints the concrete
class name on stderr, so error names are part of the public surface.
"""


class VerseBertError(Exception):
    """Base class for all domain errors in this package."""


# corpus
class MissingColumn(VerseBertError):
    pass


class UnknownLabel(VerseBertError):
    pass


class MalformedRow(VerseBertError):
    pass


# preprocess
class EmptyHemistich(VerseBertError):
    pass


# tokenizer
class EmptyCorpus(VerseBertError):
    pass


# autograd / numerics
class ShapeMismatch(VerseBertError):
    pass


class EmptyReduction(VerseBertError):
    pass


class AllMasked(VerseBertError):
    pass


# configuration; still a ValueError for callers that catch that
class InvalidConfig(VerseBertError, ValueError):
    pass


# training / checkpoints
class NonFiniteLoss(VerseBertError):
    pass


class LabelOutOfRange(VerseBertError):
    pass


class DigestMismatch(VerseBertError):
    pass


class VersionMismatch(VerseBertError):
    pass


class CorruptFile(VerseBertError):
    pass


# evaluation
class LengthMismatch(VerseBertError):
    pass
