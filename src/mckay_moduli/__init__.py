"""Exact toric geometry of moduli of quiver representations for finite abelian groups.

The pipeline: present a finite abelian group with its coordinate weights,
build the quiver of characters, route a stability parameter through it to get
the type polyhedron, and read the moduli space's toric fan and distinguished
representations off that polyhedron with exact rational arithmetic throughout.
"""

from .errors import (
    CertificateError,
    GroupSpecError,
    InputError,
    ModuliError,
)
from .groups import (
    AbelianGroupData,
    Arrow,
    IncidenceData,
    McKayQuiver,
    build_group,
    build_quiver,
    closed_walk_from_kernel,
    commutation_squares,
    cycle_from_type,
    incidence_matrices,
    kernel_generators_cij,
    theta_decompose,
)
from .moduli import (
    ChartReport,
    DistinguishedRep,
    GitParameter,
    ThetaPolyhedron,
    distinguished_rep,
    ghilb_parameter,
    lifted_flow_polyhedron,
    moduli_fan,
    stability_parameter,
    theta_polyhedron,
)
from .polyhedra import (
    Cone,
    Fan,
    HPolyhedron,
    VPolyhedron,
    h_to_v,
    locate_cone,
    normal_fan,
    project,
    v_to_h,
)

__all__ = [
    "AbelianGroupData",
    "Arrow",
    "CertificateError",
    "ChartReport",
    "Cone",
    "DistinguishedRep",
    "Fan",
    "GitParameter",
    "GroupSpecError",
    "HPolyhedron",
    "IncidenceData",
    "InputError",
    "McKayQuiver",
    "ModuliError",
    "ThetaPolyhedron",
    "VPolyhedron",
    "build_group",
    "build_quiver",
    "closed_walk_from_kernel",
    "commutation_squares",
    "cycle_from_type",
    "distinguished_rep",
    "ghilb_parameter",
    "h_to_v",
    "incidence_matrices",
    "kernel_generators_cij",
    "lifted_flow_polyhedron",
    "locate_cone",
    "moduli_fan",
    "normal_fan",
    "project",
    "stability_parameter",
    "theta_decompose",
    "theta_polyhedron",
    "v_to_h",
]

__version__ = "0.1.0"
