"""Workload primitives: identifiers, inputs, adversary placement, networks."""

from .generators import (
    SystemSpec,
    binary_inputs,
    build_network,
    real_inputs,
    sparse_ids,
    split_correct_byzantine,
)

__all__ = [
    "SystemSpec",
    "binary_inputs",
    "build_network",
    "real_inputs",
    "sparse_ids",
    "split_correct_byzantine",
]
