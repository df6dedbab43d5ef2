import runpy
import types
from pathlib import Path

import leafspan

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# the whole public surface: an export joins it only by being added here too
PUBLIC = [
    "BoundNotMetError", "BoundReport", "CYCLE_SPINE_DENSE", "CYCLE_SPINE_SPARSE", "ChainTooLongError",
    "ConstructionTrace", "CorpusReport", "DuplicateEdgeError", "EdgeNotFoundError", "ExactResult",
    "FamilySpec", "Graph", "InfeasibleError", "InstanceRecord", "InvalidGraphError", "InvalidParamsError",
    "LeafspanError", "NotConnectedError", "ParseError", "SearchExhaustedError",
    "SelfLoopError", "SpanningTree", "TRIANGLE_TREE", "TraceNode", "alpha", "beta", "beta_prime",
    "bound_kw", "bound_theorem1", "bound_theorem2", "chain_metric", "construct_theorem1",
    "construct_theorem2", "exact_mlst", "export_dot", "gamma", "gen_cycle_spine",
    "gen_triangle_tree", "girth", "glue_extremal_chain", "graph_hash", "greedy_leafy", "parse_graph",
    "random_constrained_graph", "remove_large_blocks", "replay_trace", "s_count", "serialize_graph",
    "serialize_tree", "spanning_tree", "verify_corpus",
]


def test_public_surface_matches_all():
    assert leafspan.__all__ == PUBLIC and len(set(PUBLIC)) == len(PUBLIC) == 51
    for name in leafspan.__all__:
        assert hasattr(leafspan, name), name
    public = {
        name
        for name, value in vars(leafspan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(leafspan.__all__)


def test_demos_run(capsys):
    assert len(DEMOS) == 5
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, path.name
