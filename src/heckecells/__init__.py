"""Exact combinatorics of affine Weyl groups, canonical bases, antispherical
right cells, tilting characters and nilpotent-orbit support predictions."""

from .affine import (
    AffineElement,
    AffineWeyl,
    Alcove,
    UnsupportedRegimeError,
)
from .cells import (
    CellEdge,
    CellPartition,
    cell_edges,
    cell_generators,
    decompose_fW,
    generation_constants,
    right_cells,
    stabilization_n,
)
from .hecke import (
    AsphElt,
    AsphModule,
    BasisTableError,
    CanonicalBasisTable,
    Context,
    Hecke,
    HeckeElt,
    TableBasisProvider,
    ZeroBasisProvider,
    build_context,
    load_basis_table,
    specialize_v1,
    table_from_zero_basis,
)
from .laurent import LaurentPoly
from .orbits import (
    NilpotentOrbit,
    OrbitTable,
    PredictionRecord,
    UnsupportedTypeError,
    build_orbit_table,
    closure_order,
    enumerate_orbits,
    humphreys_predict,
)
from .rootdata import CartanType, FiniteWeylElement, RootDatum, build_root_datum
from .tilting import (
    GroupAlgebraElt,
    MZeroElt,
    c_of_module,
    fusion_multiplicity,
    in_fundamental_alcove,
    tensor_translate,
    tilting_class,
    tilting_class_json,
    wall_crossing,
    weyl_module_character,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
