"""Spin structures of hyperelliptic curves under branch-point permutations.

A hyperelliptic curve of genus g double-covers the sphere with 2g+2 branch
points, and permuting those points acts on the curve's 2^(2g) spin
structures.  This package materialises that action on bit-packed 2 x g
matrices over Z/2 and verifies the resulting classification end to end:
orbit counts and sizes, canonical and stabilizer-adapted normal forms,
traced reductions, fixed points, exact stabilizer orders, and the
cross-check against the full transvection action.

Importing it loads no numpy.  The enumeration names live in hyperspin.orbits,
which needs numpy and is imported on their first access; the rest never load it.
"""

from .braid import Word, apply_generator, apply_word, flip_word, format_word, generator_class
from .gf2 import SpinMatrix, arf
from .normalform import (
    ReductionTrace,
    SelfCheckError,
    canonical_form,
    class_index,
    fixed_point_matrix,
    reduce_to_canonical,
    stabilizer_form,
)


def __getattr__(name: str):
    # an exported name not bound above is read afresh from orbits each time
    if name in __all__:
        from . import orbits
        return getattr(orbits, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "1.0.0"

__all__ = [
    "IsotropyReport",
    "OrbitPartition",
    "OrbitRecord",
    "ReductionTrace",
    "SelfCheckError",
    "SpinMatrix",
    "Word",
    "apply_generator",
    "apply_word",
    "arf",
    "canonical_form",
    "census",
    "class_index",
    "enumerate_orbits",
    "fixed_matrices",
    "fixed_point_matrix",
    "flip_word",
    "format_word",
    "generator_class",
    "predicted_orbit_size",
    "predicted_stabilizer_order",
    "reduce_to_canonical",
    "sp_transvection_orbits",
    "stabilizer_form",
    "verify_isotropy",
]
