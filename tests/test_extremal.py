import pytest

from leafspan import (
    CYCLE_SPINE_DENSE,
    CYCLE_SPINE_SPARSE,
    TRIANGLE_TREE,
    FamilySpec,
    Graph,
    InvalidParamsError,
    bound_theorem1,
    bound_theorem2,
    chain_metric,
    exact_mlst,
    gen_cycle_spine,
    gen_triangle_tree,
    girth,
    glue_extremal_chain,
    s_count,
)
from conftest import brute_cutpoints, gen_triangle_tree_reference, glue_extremal_chain_reference


def test_triangle_tree_shape():
    for n in range(1, 6):
        g = gen_triangle_tree(n)
        assert g.v == 4 * n + 2
        assert g.e == 3 * n + (n - 1) + (n + 2)
        pendants = [x for x in g.vertices if g.degree(x) == 1]
        assert len(pendants) == n + 2
        assert all(g.degree(x) == 3 for x in g.vertices if g.degree(x) != 1)
        assert s_count(g) == g.v
        assert girth(g) == 3
        # every non-pendant vertex separates the graph
        assert brute_cutpoints(g) == {x for x in g.vertices if g.degree(x) > 1}


def test_triangle_tree_matches_its_case_by_case_build():
    for n in range(1, 61):
        g, ref = gen_triangle_tree(n), gen_triangle_tree_reference(n)
        assert g == ref and list(g.edges) == list(ref.edges) and list(g.vertices) == list(ref.vertices)


def test_triangle_tree_leaf_number():
    for n in range(1, 5):
        g = gen_triangle_tree(n)
        assert exact_mlst(g).u_value == n + 2
        assert bound_theorem1(s_count(g)).value == n + 2


def test_triangle_tree_rejects_bad_n():
    with pytest.raises(InvalidParamsError):
        gen_triangle_tree(0)
    with pytest.raises(InvalidParamsError):
        gen_triangle_tree(True)


def test_cycle_spine_dense_shape():
    for g_, k_ in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        G = gen_cycle_spine(g_, k_)
        assert G.v == g_ * (k_ + 2)
        assert girth(G) == g_
        assert chain_metric(G) == k_


def test_cycle_spine_sparse_shape():
    for g_, k_ in [(5, 1), (5, 2), (6, 2), (7, 1), (9, 3)]:
        G = gen_cycle_spine(g_, k_)
        n = (g_ + 1) // 2 - 1
        assert G.v == 2 * n + 2 + (n + 1) * (k_ + 1)
        assert girth(G) == 2 * n + 2
        assert girth(G) >= g_
        assert chain_metric(G) == k_


def test_cycle_spine_tight_small():
    for g_, k_ in [(3, 1), (4, 2), (5, 1), (6, 2)]:
        G = gen_cycle_spine(g_, k_)
        u = exact_mlst(G).u_value
        assert bound_theorem2(G.v, g_, k_).value == u


def test_cycle_spine_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        gen_cycle_spine(2, 1)
    with pytest.raises(InvalidParamsError):
        gen_cycle_spine(5, 0)


def test_family_spec_validation():
    with pytest.raises(InvalidParamsError):
        FamilySpec(kind="Unknown", n=1)
    with pytest.raises(InvalidParamsError):
        FamilySpec(kind=TRIANGLE_TREE)
    with pytest.raises(InvalidParamsError):
        FamilySpec(kind=CYCLE_SPINE_DENSE, g=6, k=2)  # k < g-2 is sparse
    with pytest.raises(InvalidParamsError):
        FamilySpec(kind=CYCLE_SPINE_SPARSE, g=3, k=1)  # k >= g-2 is dense
    with pytest.raises(InvalidParamsError):
        FamilySpec(kind=CYCLE_SPINE_SPARSE, g=6, k=2, n=5)  # n is forced by g
    with pytest.raises(InvalidParamsError):
        FamilySpec(kind=CYCLE_SPINE_DENSE, g=3, k=1, n=1)  # g and k fix the dense size
    with pytest.raises(InvalidParamsError, match="needs g"):
        FamilySpec(kind=CYCLE_SPINE_SPARSE, k=2)
    with pytest.raises(InvalidParamsError, match="needs k"):
        FamilySpec(kind=CYCLE_SPINE_DENSE, g=4)
    with pytest.raises(TypeError):
        FamilySpec(kind=TRIANGLE_TREE, n=2, chain_count=2)  # copies are glue_extremal_chain's alone
    with pytest.raises(InvalidParamsError, match="copies must be >= 1"):
        glue_extremal_chain(FamilySpec(kind=TRIANGLE_TREE, n=2), 0)
    ok = FamilySpec(kind=CYCLE_SPINE_SPARSE, g=6, k=2, n=2)
    assert glue_extremal_chain(ok, 1).v == 15


@pytest.mark.parametrize("kw", [dict(k=1), dict(k=2), dict(g=3), dict(g=4, k=1)])
def test_triangle_tree_rejects_g_and_k(kw):
    # n alone fixes a triangle tree; a k would change how many bridges each
    # junction of a chain folds, and build another graph than the spec names
    with pytest.raises(InvalidParamsError, match="takes no g or k"):
        FamilySpec(kind=TRIANGLE_TREE, n=3, **kw)
    assert glue_extremal_chain(FamilySpec(kind=TRIANGLE_TREE, n=3), 2).v == 26


@pytest.mark.parametrize("bad", [1.5, 2.5, True, "2", None])
def test_chain_counts_must_be_ints(bad):
    base = FamilySpec(kind=TRIANGLE_TREE, n=2)
    with pytest.raises(InvalidParamsError, match="copies must be an integer"):
        glue_extremal_chain(base, bad)


@pytest.mark.parametrize(
    "kw",
    [
        dict(kind=TRIANGLE_TREE, n="3"),
        dict(kind=TRIANGLE_TREE, n=2.0),
        dict(kind=CYCLE_SPINE_DENSE, g="5", k=3),
        dict(kind=CYCLE_SPINE_DENSE, g=5, k=True),
        dict(kind=CYCLE_SPINE_SPARSE, g=6, k=2, n="2"),
    ],
)
def test_family_params_must_be_ints(kw):
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        FamilySpec(**kw)


def test_from_spec_single():
    # one copy of a spec is its base family graph
    g = glue_extremal_chain(FamilySpec(kind=TRIANGLE_TREE, n=3), 1)
    assert g == gen_triangle_tree(3) and g.v == 14
    g = glue_extremal_chain(FamilySpec(kind=CYCLE_SPINE_DENSE, g=3, k=1), 1)
    assert g == gen_cycle_spine(3, 1) and g.v == 9


def test_chain_counts_and_tightness_triangle():
    base = FamilySpec(kind=TRIANGLE_TREE, n=1)
    for copies in (2, 3):
        g = glue_extremal_chain(base, copies)
        assert g.v == 6 + (copies - 1) * 4
        u = exact_mlst(g).u_value
        assert u == copies + 2
        assert bound_theorem1(s_count(g)).value == u


def test_chain_counts_and_tightness_dense():
    base = FamilySpec(kind=CYCLE_SPINE_DENSE, g=3, k=1)
    g = glue_extremal_chain(base, 2)
    assert g.v == 9 + 9 - 1 - 2
    assert chain_metric(g) == 1
    u = exact_mlst(g).u_value
    assert u == 4
    assert bound_theorem2(g.v, 3, 1).value == u


def test_chain_counts_and_tightness_sparse():
    base = FamilySpec(kind=CYCLE_SPINE_SPARSE, g=6, k=2)
    g = glue_extremal_chain(base, 2)
    assert g.v == 15 + 15 - 2 - 2
    assert chain_metric(g) == 2
    assert girth(g) == 6
    u = exact_mlst(g).u_value
    assert u == 6
    assert bound_theorem2(g.v, 6, 2).value == u


def test_chain_via_from_spec():
    spec = FamilySpec(kind=CYCLE_SPINE_DENSE, g=3, k=1)
    g = glue_extremal_chain(spec, 3)
    assert g.v == 9 + 2 * (9 - 3)
    assert exact_mlst(g).u_value == bound_theorem2(g.v, 3, 1).value == 5


def test_chain_of_one_is_base():
    base = FamilySpec(kind=TRIANGLE_TREE, n=2)
    assert glue_extremal_chain(base, 1) == gen_triangle_tree(2)


def test_chain_matches_its_glue_and_contract_build():
    # equal graphs whose vertex sets iterate in the same order; the order the
    # edge set iterates in follows the history of the set operations that
    # built it, so it differs, and test_build_order_changes_no_tree_or_trace
    # shows that no tree or trace depends on it
    specs = [FamilySpec(TRIANGLE_TREE, n=n) for n in range(1, 6)]
    for g in range(3, 10):
        specs += [FamilySpec(CYCLE_SPINE_DENSE if k >= g - 2 else CYCLE_SPINE_SPARSE, g=g, k=k) for k in range(1, 6)]
    for spec in specs:
        for copies in range(1, 12):
            g, ref = glue_extremal_chain(spec, copies), glue_extremal_chain_reference(spec, copies)
            assert g == ref and list(g.vertices) == list(ref.vertices)
