"""Domination and packing numbers: exact solvers, LP duality, per-class
constructive algorithms, and planar lemma checks."""

from .codec import emit_edge_json, emit_graph6, parse_edge_json, parse_graph, parse_graph6
from .constructions import (
    DomPackCertificate,
    chordal_bipartite_dompack,
    homogeneously_orderable_dompack,
    strongly_chordal_dompack,
    tree_dompack,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    DompackError,
    EmbeddingError,
    GenerationBudgetError,
    GraphError,
    ParseError,
    PreconditionError,
    VertexRangeError,
)
from .graph import (
    Graph,
    Multigraph,
    VertexSet,
    greedy_maximal_independent_set,
    is_dominating,
    is_packing,
)
from .lp import LpSolution, SandwichReport, fractional_domination, harmonic, verify_sandwich
from .planar import (
    ChargeLedger,
    PlanarEmbedding,
    TriangulationBlocked,
    charge_audit,
    embed_maximal_planar,
    find_low_degree_edge,
    icosahedron_embedding,
    random_min_degree4_planar,
    random_planar,
    random_planar_embedding,
    triangulate_preserving_independent,
)
from .recognition import (
    HExtremalWitness,
    Ordering,
    bipartition,
    find_h_extremal_witness,
    find_homogeneous_ordering,
    find_simple_elimination_ordering,
    is_chordal_bipartite,
    is_homogeneous,
    is_tree,
    split_clique,
    validate_homogeneous_ordering,
    validate_simple_elimination_ordering,
)
from .generators import (
    GenSpec,
    all_graphs,
    all_trees,
    derive_seed,
    gen_chordal_bipartite,
    gen_distance_hereditary,
    gen_interval,
    gen_named,
    gen_rook,
    gen_tree,
    generate,
)
from .solvers import (
    SolveResult,
    brute_force_domination,
    brute_force_packing,
    exact_domination,
    exact_packing,
    greedy_domination,
    max_ratio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
