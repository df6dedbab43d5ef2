"""Spanning trees with many leaves: exact solver, lower bounds, certificates.

The package computes the maximum leaf number of a connected graph exactly
at small scale, evaluates rational lower-bound rates driven by the number
of non-degree-2 vertices or by girth and chain structure, and builds
spanning trees that meet those bounds constructively, with replayable
traces.  Extremal generators produce the families on which the bounds are
exact, and the corpus module batch-verifies everything on seeded random
instances.
"""

from .blocks import (
    Block,
    BlockDecomposition,
    Spine,
    decompose_blocks,
    find_spines,
)
from .bounds import (
    BoundReport,
    alpha,
    beta,
    beta_prime,
    bound_kw,
    bound_theorem1,
    bound_theorem2,
    gamma,
)
from .constructive import (
    ConstructionTrace,
    TraceNode,
    construct_theorem1,
    construct_theorem2,
    remove_large_blocks,
    replay_trace,
)
from .corpus import (
    CorpusReport,
    InstanceRecord,
    random_constrained_graph,
    verify_corpus,
)
from .errors import (
    BoundNotMetError,
    ChainTooLongError,
    DuplicateEdgeError,
    EdgeNotFoundError,
    InfeasibleError,
    InvalidGraphError,
    InvalidParamsError,
    LeafspanError,
    NotALeafError,
    NotConnectedError,
    ParseError,
    SearchExhaustedError,
    SelfLoopError,
)
from .exact import (
    ExactResult,
    exact_mlst,
    greedy_leafy,
)
from .extremal import (
    CYCLE_SPINE_DENSE,
    CYCLE_SPINE_SPARSE,
    TRIANGLE_TREE,
    FamilySpec,
    from_spec,
    gen_cycle_spine,
    gen_triangle_tree,
    glue_extremal_chain,
)
from .graph import (
    ContractResult,
    GlueResult,
    Graph,
    chain_metric,
    contract_edge,
    girth,
    glue,
    s_count,
)
from .graph_io import (
    export_dot,
    graph_hash,
    parse_graph,
    serialize_graph,
    serialize_tree,
)
from .trees import (
    SpanningTree,
    spanning_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockDecomposition",
    "BoundNotMetError",
    "BoundReport",
    "CYCLE_SPINE_DENSE",
    "CYCLE_SPINE_SPARSE",
    "ChainTooLongError",
    "ConstructionTrace",
    "ContractResult",
    "CorpusReport",
    "DuplicateEdgeError",
    "EdgeNotFoundError",
    "ExactResult",
    "FamilySpec",
    "GlueResult",
    "Graph",
    "InfeasibleError",
    "InstanceRecord",
    "InvalidGraphError",
    "InvalidParamsError",
    "LeafspanError",
    "NotALeafError",
    "NotConnectedError",
    "ParseError",
    "SearchExhaustedError",
    "SelfLoopError",
    "SpanningTree",
    "Spine",
    "TRIANGLE_TREE",
    "TraceNode",
    "alpha",
    "beta",
    "beta_prime",
    "bound_kw",
    "bound_theorem1",
    "bound_theorem2",
    "chain_metric",
    "construct_theorem1",
    "construct_theorem2",
    "contract_edge",
    "decompose_blocks",
    "exact_mlst",
    "export_dot",
    "find_spines",
    "from_spec",
    "gamma",
    "gen_cycle_spine",
    "gen_triangle_tree",
    "girth",
    "glue",
    "glue_extremal_chain",
    "graph_hash",
    "greedy_leafy",
    "parse_graph",
    "random_constrained_graph",
    "remove_large_blocks",
    "replay_trace",
    "s_count",
    "serialize_graph",
    "serialize_tree",
    "spanning_tree",
    "verify_corpus",
]
