"""Exact computations in the oriented ribbon graph complex and its pairing
with symplectic cyclic A-infinity algebras.

Everything is over exact rationals; there are no floats anywhere in the
computational path.
"""

from .ainfinity import (AInfinityAlgebra, characteristic_class,
                        connected_partition_function, direct_sum, exp_chain,
                        hamiltonian_from_products, partition_function, twist,
                        validate)
from .complexes import (GraphChain, basis, boundary, coboundary,
                        homology_dims, is_boundary, pairing)
from .feynman import (amplitude, integral_I, integral_I_inverse,
                      pair_chain_graph)
from .graphs import (EMPTY_GRAPH, RibbonGraph, canonicalize, disjoint_union,
                     enumerate_graphs)
from .lie import CEChain, CyclicWord, bracket, ce_differential
from .scalars import format_scalar, json_scalar, parse_scalar
from .superspace import SuperDim, SuperTensor, SymplecticForm, contract
from .tcft import (compose, compose_tensors, composition_compatibility,
                   correlation, enumerate_legged_graphs, glue)

__version__ = "0.1.0"
