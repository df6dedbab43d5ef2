import hashlib
import re
from collections import Counter
from functools import cached_property

import pytest

from leafspan import (
    Graph,
    InfeasibleError,
    InvalidParamsError,
    chain_metric,
    girth,
    random_constrained_graph,
    serialize_graph,
    verify_corpus,
)
from conftest import brute_girth


def test_constraints_honoured():
    cases = [
        dict(v=8, min_degree=1, girth_at_least=3, ell_at_most=None),
        dict(v=10, min_degree=1, girth_at_least=4, ell_at_most=2),
        dict(v=9, min_degree=2, girth_at_least=3, ell_at_most=None),
        dict(v=12, min_degree=2, girth_at_least=5, ell_at_most=None),
        dict(v=7, min_degree=1, girth_at_least=3, ell_at_most=1),
    ]
    for i, kw in enumerate(cases):
        g = random_constrained_graph(seed=i, **kw)
        assert g.v == kw["v"]
        assert g.is_connected
        assert g.min_degree >= kw["min_degree"]
        gv = girth(g)
        assert gv is None or gv >= kw["girth_at_least"]
        if kw["ell_at_most"] is not None:
            assert chain_metric(g) <= kw["ell_at_most"]


def test_spec_example_params():
    g = random_constrained_graph(10, min_degree=1, girth_at_least=4, ell_at_most=2, seed=1)
    assert g.v == 10 and g.is_connected
    assert girth(g) is None or girth(g) >= 4
    assert chain_metric(g) <= 2


def test_deterministic_per_seed():
    a = random_constrained_graph(9, min_degree=2, seed=42)
    b = random_constrained_graph(9, min_degree=2, seed=42)
    assert a == b
    c = random_constrained_graph(9, min_degree=2, seed=43)
    assert a != c  # not guaranteed in general, but stable for these seeds


# sha256 over every outcome below, graph or error, pinned from a generator
# that derived a new Graph per chord: the same seed must draw the same rng
# calls in the same order and give the same graph or the same error
OUTCOMES_DIGEST = "54dd2737040f73407ba00ef7a0362aaf87a3a26c0b48478dc7d7ff294a6648a5"


def test_outcomes_match_the_pinned_digest():
    # (min_degree, girth floor, chain cap)
    params = [(1, 3, None), (2, 3, None), (3, 3, None), (2, 4, None), (2, 5, None), (1, 6, None), (2, 3, 2)]
    h = hashlib.sha256()
    for md, floor, ell in params:
        for v in range(1, 21):
            for seed in range(10):
                try:
                    g = random_constrained_graph(v, md, floor, ell, seed)
                    # the generator never measures girth; the floor holds by its
                    # ball rule, checked here by an oracle apart from girth()
                    assert (brute_girth(g) or floor) >= floor, (v, md, floor, seed)
                    out = serialize_graph(g)
                except (InfeasibleError, InvalidParamsError) as exc:
                    out = f"{type(exc).__name__}: {exc}\n"
                h.update(out.encode())
    assert h.hexdigest() == OUTCOMES_DIGEST


def test_single_vertex():
    g = random_constrained_graph(1, min_degree=0)
    assert g.v == 1 and g.e == 0
    # a degree floor on one vertex is out of range, not merely unlucky
    with pytest.raises(InvalidParamsError):
        random_constrained_graph(1, min_degree=1)


def test_infeasible_constraints():
    # only K4 has min degree 3 on four vertices, and its girth is 3
    with pytest.raises(InfeasibleError):
        random_constrained_graph(4, min_degree=3, girth_at_least=5, seed=0)


def test_param_validation():
    with pytest.raises(InvalidParamsError):
        random_constrained_graph(0)
    with pytest.raises(InvalidParamsError):
        random_constrained_graph(5, min_degree=5)
    with pytest.raises(InvalidParamsError):
        random_constrained_graph(5, girth_at_least=2)
    with pytest.raises(InvalidParamsError):
        random_constrained_graph(5, ell_at_most=-1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(min_degree=1.5),
        dict(min_degree=True),
        dict(min_degree="1"),
        dict(girth_at_least=3.5),
        dict(girth_at_least=True),
        dict(ell_at_most=2.0),
        dict(ell_at_most=False),
    ],
)
def test_param_validation_wants_ints(kw):
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        random_constrained_graph(5, **kw)


LINE = re.compile(
    r"^i=\d+ hash=[0-9a-f]{12} v=\d+ e=\d+ girth=(\d+|acyclic) ell=\d+ s=\d+ "
    r"kind=(Theorem1|Theorem2) bound=-?\d+/\d+ achieved=\d+ pass=[01]( note=\w+)?$"
)


def test_verify_corpus_theorem1():
    rep = verify_corpus(1, count=25, max_v=9, seed=5)
    assert len(rep.records) == 25
    assert rep.failures == []
    lines = rep.lines()
    assert lines[-1].startswith("total=25 passed=25 failed=0 theorem=1 mode=exact")
    for ln in lines[:-1]:
        assert LINE.match(ln), ln


def test_verify_corpus_theorem2():
    rep = verify_corpus(2, count=25, max_v=9, seed=5)
    assert rep.failures == []
    assert any(r.note == "tree" for r in rep.records) or all(
        r.girth is not None for r in rep.records
    )
    for r in rep.records:
        if r.girth is None:
            assert r.note == "tree"


def test_verify_corpus_construct_mode():
    rep = verify_corpus(1, count=15, max_v=9, seed=7, mode="construct")
    assert rep.failures == []
    rep2 = verify_corpus(2, count=15, max_v=9, seed=7, mode="construct")
    assert rep2.failures == []


def test_construct_corpus_measures_each_graph_once(monkeypatch):
    # the generator, the request checks of verify_corpus, construct and
    # replay, and the descent's need all read the measures cached on a graph
    measured = {"_girth": [], "_chain_metric": []}
    for name, graphs in measured.items():

        def counted(self, real=Graph.__dict__[name].func, graphs=graphs):
            graphs.append(self)  # held, so no id is reused
            return real(self)

        prop = cached_property(counted)
        prop.__set_name__(Graph, name)
        monkeypatch.setattr(Graph, name, prop)
    rep = verify_corpus(2, 20, 12, mode="construct")
    assert len(rep.records) == 20 and not rep.failures
    for graphs in measured.values():
        assert graphs and max(Counter(map(id, graphs)).values()) == 1


def test_verify_corpus_reproducible():
    a = verify_corpus(1, count=10, max_v=8, seed=3).text()
    b = verify_corpus(1, count=10, max_v=8, seed=3).text()
    assert a == b
    # extending the corpus keeps the shared prefix
    long = verify_corpus(1, count=12, max_v=8, seed=3)
    assert [r.line() for r in long.records[:10]] == a.splitlines()[:10]


def test_verify_corpus_validation():
    with pytest.raises(InvalidParamsError):
        verify_corpus(3, count=1, max_v=5)
    with pytest.raises(InvalidParamsError):
        verify_corpus(1, count=0, max_v=5)
    with pytest.raises(InvalidParamsError):
        verify_corpus(1, count=1, max_v=1)
    with pytest.raises(InvalidParamsError):
        verify_corpus(1, count=1, max_v=5, mode="guess")
    # bools and non-integers are refused, not read as 1 or passed to range
    bad = [(True, 2, 5), (1.0, 2, 5), ("1", 2, 5)]
    bad += [(1, 2.5, 5), (1, True, 5), (1, 2, 5.0), (1, 2, True)]
    for theorem, count, max_v in bad:
        with pytest.raises(InvalidParamsError) as info:
            verify_corpus(theorem, count, max_v)
        assert type(info.value) is InvalidParamsError
