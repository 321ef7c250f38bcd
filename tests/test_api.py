"""The exported names: a pinned list, each of which resolves."""

import hyperspin

EXPORTED = [
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


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 32
    assert sorted(hyperspin.__all__) == sorted(EXPORTED)
    assert len(set(hyperspin.__all__)) == len(hyperspin.__all__)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from hyperspin import *", namespace)
    assert set(hyperspin.__all__) <= set(namespace)
