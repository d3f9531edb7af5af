"""resonantk: resonance analysis of fullerene graphs.

Fullerene graphs (plane cubic graphs with 12 pentagonal faces and hexagonal
faces otherwise) are handled combinatorially through rotation systems.  The
package computes resonant (sextet) patterns and k-resonance orders, sextet
polynomials, Clar and Fries numbers, leapfrog transforms with constructive
2-resonance certificates, pentagonal rings and fragments, and ships a catalog
of the named graphs these notions single out.
"""

from __future__ import annotations

from .catalog import (
    THE_NINE,
    CatalogEntry,
    ExpectedFacts,
    catalog_graph,
    catalog_names,
    nanotube,
    verify_entry,
)
from .errors import GraphError, GuardExceeded, NotFullereneError
from .leapfrog import (
    LeapfrogResult,
    Territory,
    leapfrog,
    territory,
    two_resonance_certificate,
)
from .matching import (
    Matching,
    TutteWitness,
    alternating_faces,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_central,
    maximum_matching,
    resolve_pm_cap,
    symmetric_difference,
    tutte_witness,
)
from .plane_graph import (
    Automorphism,
    EmbeddedGraph,
    Face,
    FaceSet,
    FullereneGraph,
    Subgraph,
    automorphisms,
    canonical_code,
    delete_vertices,
    emit_graph,
    faces,
    is_bipartite,
    parse_graph,
    validate_fullerene,
    verify_cyclic_edge_connectivity,
)
from .resonance import (
    ALL,
    GStarWitness,
    HexagonReport,
    OrderReport,
    ResonantPattern,
    SextetPolynomial,
    clar,
    find_g_star,
    fries,
    hexagon_dichotomy_report,
    is_resonant_pattern,
    resonance_order,
    sextet,
)
from .rings_fragments import (
    ANY,
    PENTAGONS_ONLY,
    CapWitness,
    Fragment,
    Ring,
    detect_r5_r6,
    find_polygonal_rings,
    maximal_pentagonal_fragments,
    psi,
    ring_stats,
    tau,
)
from ._spiral import wind

__version__ = "0.1.0"

__all__ = [
    "ALL",
    "ANY",
    "PENTAGONS_ONLY",
    "THE_NINE",
    "Automorphism",
    "CapWitness",
    "CatalogEntry",
    "EmbeddedGraph",
    "ExpectedFacts",
    "Face",
    "FaceSet",
    "Fragment",
    "FullereneGraph",
    "GStarWitness",
    "GraphError",
    "GuardExceeded",
    "HexagonReport",
    "LeapfrogResult",
    "Matching",
    "NotFullereneError",
    "OrderReport",
    "ResonantPattern",
    "Ring",
    "SextetPolynomial",
    "Subgraph",
    "Territory",
    "TutteWitness",
    "alternating_faces",
    "automorphisms",
    "canonical_code",
    "catalog_graph",
    "catalog_names",
    "clar",
    "delete_vertices",
    "detect_r5_r6",
    "emit_graph",
    "enumerate_perfect_matchings",
    "faces",
    "find_g_star",
    "find_polygonal_rings",
    "fries",
    "has_perfect_matching",
    "hexagon_dichotomy_report",
    "is_bipartite",
    "is_central",
    "is_resonant_pattern",
    "leapfrog",
    "maximal_pentagonal_fragments",
    "maximum_matching",
    "nanotube",
    "parse_graph",
    "psi",
    "resolve_pm_cap",
    "resonance_order",
    "ring_stats",
    "sextet",
    "symmetric_difference",
    "tau",
    "territory",
    "two_resonance_certificate",
    "tutte_witness",
    "validate_fullerene",
    "verify_cyclic_edge_connectivity",
    "verify_entry",
    "wind",
    "__version__",
]
