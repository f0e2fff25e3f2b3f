"""Small algebras used by the tests and shipped as worked examples.

All of them validate at import time in the test suite; they are kept here
rather than under tests/ because the CLI ships them as ready-made inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .ainfinity import AInfinityAlgebra, hamiltonian_from_products
from .lie import CyclicWord
from .superspace import SuperDim, SuperTensor, SymplecticForm


def trivial(n: int, m: int, truncation: int = 7) -> AInfinityAlgebra:
    """No products at all: every invariant vanishes except the empty graph."""
    return AInfinityAlgebra(SymplecticForm(SuperDim(n, m)), {},
                            truncation)


def frobenius_pair(truncation: int = 7) -> AInfinityAlgebra:
    """The Frobenius algebra C x C with orthonormal basis: two odd
    letters, identity inner product, h3 = x1^3 + x2^3.

    The square of each letter is cyclically zero and the letters do not
    pair with each other, so the structure equation holds on the nose.
    """
    dim = SuperDim(0, 2)
    h3 = SuperTensor(dim, 3, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(1)})
    return AInfinityAlgebra(SymplecticForm(dim), {3: h3}, truncation)


def sphere_cohomology(truncation: int = 7) -> AInfinityAlgebra:
    """The cohomology ring of the even sphere: a unit and one even
    generator squaring to zero, with the Poincare pairing.

    On the two odd dual letters the pairing is hyperbolic (off-diagonal),
    so it is indefinite: no rational or real basis change makes it the
    identity, and the partition function and the characteristic class are
    both computed with this form as it is.  The tensor is built from the
    product table.
    """
    dim = SuperDim(0, 2)
    one, u = 0, 1
    form = SymplecticForm(dim, [[Fraction(0), Fraction(1)],
                                [Fraction(1), Fraction(0)]])
    m2 = {
        (one, one): {one: Fraction(1)},
        (one, u): {u: Fraction(1)},
        (u, one): {u: Fraction(1)},
        (u, u): {},
    }
    hs = hamiltonian_from_products({2: m2}, form)
    return AInfinityAlgebra(form, hs, truncation)


def nilpotent_11(truncation: int = 7) -> AInfinityAlgebra:
    """One symplectic pair and one odd letter, h3 = x1^3: the smallest
    algebra whose twists leave the odd line."""
    dim = SuperDim(1, 1)
    x = 2
    h3 = SuperTensor(dim, 3, {(x, x, x): Fraction(1)})
    return AInfinityAlgebra(SymplecticForm(dim), {3: h3}, truncation)


def twisted_11(truncation: int = 7) -> AInfinityAlgebra:
    """The 1|1 algebra pushed along the flow of p1.x1.q1.x1: picks up
    genuine order-5 and order-7 tensors while staying a valid structure."""
    from .ainfinity import twist
    base = nilpotent_11(truncation)
    gamma = CyclicWord.word(base.dim, (0, 2, 1, 2))
    return twist(base, gamma, truncation)
