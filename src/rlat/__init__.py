"""Finite commutative idempotent involutive residuated lattices.

Validation, Boolean-block partitions, congruence lattices, gluing and its
inverse decomposition, stock generator families, property decision
procedures, exhaustive enumeration up to isomorphism, and text file formats.
"""

import sys

# each public name -> the module that defines it, loaded on first use
_LAZY = {name: module for module, names in (
    ("congruence", "Congruence ConLattice congruence_from_filter "
                   "congruence_lattice quotient"),
    ("core", "AXIOM_NAMES FiniteInRL Report find_isomorphism validate"),
    ("decompose", "SplitResult decompose find_atoms reassemble split"),
    ("fileformat", "GluingSpecFile ParseError dot_export emit emit_gluing "
                   "load_algebra parse parse_gluing write_tree"),
    ("generate", "boolean_algebra build_an"),
    ("gluing", "DecompositionTree GluingSpec Leaf Node build_spec glue "
               "validate_gluing"),
    ("partition", "BooleanBlock Partition block join_incompatibility_witness "
                  "partition"),
    ("props", "PropertyVerdict is_distributive_semilattice "
              "is_lattice_distributive is_semilinear subalgebra_generated"),
    ("search", "Corpus enumerate_up_to_iso")) for name in names.split()}

__all__ = sorted(_LAZY)


def __getattr__(name):
    """Load the module that defines name on its first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    module = import_module("." + _LAZY[name], __name__)
    globals()[name] = value = getattr(module, name)
    return value


class _Package(type(sys)):
    def __setattr__(self, name, value):
        # the import system binds each submodule it loads on its package;
        # rlat.decompose and rlat.partition stay the functions of the same
        # name, and the modules stay in sys.modules
        if name in ("decompose", "partition") and isinstance(value, type(sys)):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
