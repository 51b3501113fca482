"""Exact construction of maximal p-core p'-partitions via longest walks.

The package root holds the names of the README's Library section; every other
name is imported from its module, e.g. ``from corewalk.bounds import bounds_report``.
"""

__version__ = "0.1.0"

from .errors import ClassificationError, UniquenessError, VerificationError
from .partitions import Partition
from .residue_walk import LambdaProfile, WalkValidation, lambda_profile, profile_to_partition, validate_walk

__all__ = [
    "ClassificationError",
    "LambdaProfile",
    "Partition",
    "UniquenessError",
    "VerificationError",
    "WalkValidation",
    "lambda_profile",
    "profile_to_partition",
    "validate_walk",
]
