"""Spin structures of hyperelliptic curves under branch-point permutations.

A hyperelliptic curve of genus g double-covers the sphere with 2g+2 branch
points, and permuting those points acts on the curve's 2^(2g) spin
structures.  This package materialises that action on bit-packed 2 x g
matrices over Z/2 and verifies the resulting classification end to end:
orbit counts and sizes, canonical and stabilizer-adapted normal forms,
traced reductions, fixed points, exact stabilizer orders, and the
cross-check against the full transvection action.
"""

from .braid import (
    Word,
    apply_generator,
    apply_word,
    flip_word,
    format_word,
    generator_class,
)
from .gf2 import (
    HomologyClass,
    SpinMatrix,
    arf,
    dehn_twist,
    evaluate,
    intersection,
)
from .normalform import (
    ReductionInvariantError,
    ReductionStep,
    ReductionTrace,
    canonical_form,
    class_index,
    classify_canonical,
    fixed_point_matrix,
    reduce_to_canonical,
    stabilizer_form,
)
from .orbits import (
    IsotropyReport,
    OrbitPartition,
    OrbitRecord,
    SelfCheckError,
    census,
    enumerate_orbits,
    fixed_matrices,
    predicted_orbit_size,
    predicted_stabilizer_order,
    sp_transvection_orbits,
    verify_isotropy,
)

__version__ = "1.0.0"

__all__ = [
    "HomologyClass",
    "IsotropyReport",
    "OrbitPartition",
    "OrbitRecord",
    "ReductionInvariantError",
    "ReductionStep",
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
    "classify_canonical",
    "dehn_twist",
    "enumerate_orbits",
    "evaluate",
    "fixed_matrices",
    "fixed_point_matrix",
    "flip_word",
    "format_word",
    "generator_class",
    "intersection",
    "predicted_orbit_size",
    "predicted_stabilizer_order",
    "reduce_to_canonical",
    "sp_transvection_orbits",
    "stabilizer_form",
    "verify_isotropy",
]
