"""The tests' oracles: the scalar twist reference, a breadth-first orbit
partition, a branch-subset classifier and the reducer's column walk.

HomologyClass, intersection, evaluate and dehn_twist are the scalar twist
reference: the transvection formula on a class's (a, b) words, with bit k-1
of a the coefficient of alpha_k and bit k-1 of b that of beta_k.  The
program twists only by the entries of braid._letters and orbits.twist_keys
on packed keys; the tests check both, and apply_generator, against
dehn_twist, and the relations row's packed refinement against evaluate.  A
matrix here is anything with the fields g, top and bottom.

bfs_partition shares no code with the bitset sweeps of the closure behind
enumerate_orbits and sp_transvection_orbits, which compile each class into
a _twist_plan.  It does share twist_keys with the closure's levels, which
twist every frontier of fewer than n >> 11 keys through it, at an orbit's
start and after a sweep hands back the few keys it added; this oracle
calls it one class at a time, a level for all classes at once.  So its
independence rests on twist_keys, which tests/test_orbits.py checks
against dehn_twist.

rightmost_equal_pair walks the nonzero columns from the right, one big-int
operation per column, where normalform._rightmost_equal_pair adds carries.

The scalar reference, weierstrass_subset, weierstrass_class and
rightmost_equal_pair share no code with the program: they use nothing
imported from hyperspin (tests/test_api.py checks this).  On a hyperelliptic curve the spin structures are the subsets T of the
2g+2 branch points with |T| = g+1 (mod 2), up to complement (Johnson,
"Spin structures and quadratic forms on surfaces", 1980).
"""

import dataclasses

import numpy as np

from hyperspin.orbits import SelfCheckError, twist_keys


@dataclasses.dataclass(frozen=True)
class HomologyClass:
    """A Z/2 first-homology class of a genus-g surface; addition is XOR."""

    g: int
    a: int
    b: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"genus must be >= 1, got {self.g}")
        mask = (1 << self.g) - 1
        if not 0 <= self.a <= mask or not 0 <= self.b <= mask:
            raise ValueError("coefficient word out of range for genus")

    def __add__(self, other):
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} != {other.g}")
        return HomologyClass(self.g, self.a ^ other.a, self.b ^ other.b)

    @classmethod
    def from_key(cls, g, key):
        """Unpack the class key a | b << g."""
        return cls(g, key & ((1 << g) - 1), key >> g)


def _parity(x):
    return x.bit_count() & 1


def intersection(x, y):
    """Z/2 intersection number of two classes: bilinear and alternating."""
    if x.g != y.g:
        raise ValueError(f"genus mismatch: {x.g} != {y.g}")
    return _parity(x.a & y.b) ^ _parity(x.b & y.a)


def evaluate(matrix, x):
    """Value of the spin structure on an arbitrary class.

    c(x) = sum_k a_k b_k + sum_k (a_k c(alpha_k) + b_k c(beta_k)) over Z/2,
    where x has coefficients (a, b).  Restricted to the basis this returns
    the matrix entries themselves.
    """
    if matrix.g != x.g:
        raise ValueError(f"genus mismatch: {matrix.g} != {x.g}")
    return _parity(x.a & x.b) ^ _parity(x.a & matrix.top) ^ _parity(x.b & matrix.bottom)


def dehn_twist(matrix, gamma):
    """Pull back the spin structure along the twist transvection about gamma.

    The transvection T(x) = x + (x.gamma) gamma turns c into
    x -> c(x) + (x.gamma)(c(gamma) + 1); evaluated on the basis this leaves
    the matrix unchanged when c(gamma) = 1 and otherwise adds gamma's
    beta-word to the top row and alpha-word to the bottom row.  Applying
    the same twist twice restores the matrix.
    """
    if matrix.g != gamma.g:
        raise ValueError(f"genus mismatch: {matrix.g} != {gamma.g}")
    if evaluate(matrix, gamma):
        return matrix
    return dataclasses.replace(matrix, top=matrix.top ^ gamma.b, bottom=matrix.bottom ^ gamma.a)


def bfs_partition(g, classes):
    """Orbit ordinals and sizes of the partition under twists about classes.

    The return value is _closure_partition's: ordinals[key] = k puts key in
    the k-th orbit found and 0 marks it unseen, and sizes maps each seed to
    its orbit's size.  The one uint8 map is also the seen test of the
    per-edge gather.  Seeds are found by scanning it for its next 0, so in
    increasing key order, and each is the minimum key of its orbit.  No
    batch needs a dedupe: a twist is an involution, hence injective, so its
    images of a duplicate-free frontier hold no repeats, and marking each
    batch before the next twist runs keeps out keys that two twists both
    reach.
    """
    ordinals = np.zeros(1 << (2 * g), dtype=np.uint8)
    sizes = {}
    seed = 0
    while True:
        seed += int(np.argmin(ordinals[seed:]))
        if ordinals[seed]:
            return ordinals, sizes
        ordinal = len(sizes) + 1
        if ordinal > 255:  # the largest uint8 ordinal
            raise SelfCheckError("more than 255 orbits")
        ordinals[seed] = ordinal
        size = 1
        frontier = np.array([seed], dtype=np.uint32)
        while frontier.size:
            fresh = []
            for gamma_key in classes:
                images = twist_keys(g, gamma_key, frontier)
                new = images[np.take(ordinals, images) == 0]
                if new.size:
                    ordinals[new] = ordinal
                    size += new.size
                    fresh.append(new)
            frontier = np.concatenate(fresh) if fresh else np.empty(0, dtype=np.uint32)
        sizes[seed] = size


def weierstrass_subset(g, top, bottom):
    """The branch subset T of the matrix (top, bottom), as a mask: bit p-1 is point p.

    Generator s_p twists about the lift of the arc {p, p+1}; with v_p the
    matrix value on that curve (v_1 = c(beta_1), v_2i = c(alpha_i),
    v_2i+1 = c(beta_i) + c(beta_i+1), v_2g+1 = c(beta_g)), the membership
    bits are t_1 = 0 and t_p+1 = t_p xor v_p xor 1.  So point 1 is never in
    T; the complement of T names the same structure.
    """
    values = [bottom & 1]
    for i in range(g):
        values.append(top >> i & 1)
        values.append((bottom >> i ^ bottom >> (i + 1)) & 1)  # bit g of bottom is 0
    subset = t = 0
    for p, v in enumerate(values, start=1):
        t ^= v ^ 1
        subset |= t << p
    return subset


def weierstrass_class(g, top, bottom):
    """The class index m = |g + 1 - |T|| / 2 of the matrix (top, bottom)."""
    return abs(g + 1 - weierstrass_subset(g, top, bottom).bit_count()) // 2


def rightmost_equal_pair(top, bottom):
    """The rightmost adjacent pair of nonzero columns with equal bottom bits.

    Columns are 1-based bit positions; bottom lies within top, so the
    nonzero columns are top's set bits.  Returns (pos, pos') or None.
    """
    i = top.bit_length()
    while i and (below := top & (1 << i - 1) - 1):
        s = below.bit_length()
        if not (bottom >> s - 1 ^ bottom >> i - 1) & 1:
            return s, i
        i = s
    return None
