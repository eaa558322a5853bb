"""Finite commutative idempotent involutive residuated lattices.

Validation, Boolean-block partitions, congruence lattices, gluing and its
inverse decomposition, stock generator families, property decision
procedures, exhaustive enumeration up to isomorphism, and text file formats.
"""

from .core import (AXIOM_NAMES, FiniteInRL, Report, elementary_properties,
                   find_isomorphism, subalgebra_generated, validate)
# eager: a first import of the decompose or partition module rebinds its name
from .decompose import (DecompositionTree, Leaf, Node, SplitResult,
                        decompose, find_atoms, reassemble, split)
from .fileformat import (GluingSpecFile, ParseError, build_spec, dot_export,
                         emit, emit_gluing, load_algebra, parse,
                         parse_gluing, write_tree)
from .gluing import GluedAlgebra, GluingSpec, glue, validate_gluing
from .partition import (BooleanBlock, Partition, block,
                        join_incompatibility_witness, partition,
                        verify_partition)

_LAZY = {name: module for module, names in (
    ("congruence", "Congruence ConLattice NegConeFilter quotient "
                   "congruence_from_filter congruence_lattice "
                   "filters_of_negative_cone"),
    ("generate", "boolean_algebra build_an"),
    ("props", "PropertyVerdict distributive_semilattice_table "
              "is_distributive_semilattice is_lattice_distributive "
              "is_semilinear"),
    ("search", "Corpus enumerate_up_to_iso")) for name in names.split()}


def __getattr__(name):
    """Load congruence, generate, props or search on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    module = import_module("." + _LAZY[name], __name__)
    globals()[name] = value = getattr(module, name)
    return value


__all__ = [
    "AXIOM_NAMES", "BooleanBlock", "ConLattice", "Congruence", "Corpus",
    "DecompositionTree", "FiniteInRL", "GluedAlgebra", "GluingSpec",
    "GluingSpecFile", "Leaf", "NegConeFilter", "Node", "ParseError",
    "Partition", "PropertyVerdict", "Report", "SplitResult", "block",
    "boolean_algebra", "build_an", "build_spec", "congruence_from_filter",
    "congruence_lattice", "decompose", "distributive_semilattice_table",
    "dot_export", "elementary_properties", "emit", "emit_gluing",
    "enumerate_up_to_iso", "filters_of_negative_cone", "find_atoms",
    "find_isomorphism", "glue", "is_distributive_semilattice",
    "is_lattice_distributive", "is_semilinear",
    "join_incompatibility_witness", "load_algebra", "parse", "parse_gluing",
    "partition", "quotient", "reassemble", "split", "subalgebra_generated",
    "validate", "validate_gluing", "verify_partition", "write_tree",
]
