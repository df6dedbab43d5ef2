import io
import random

import pytest

from leafspan import Graph, parse_graph, serialize_graph
from leafspan.cli import main
from conftest import random_cubic

TRIANGLE = "0 1\n1 2\n0 2\n"


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_exact_stdin(monkeypatch, capsys):
    feed(monkeypatch, TRIANGLE)
    assert main(["exact"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("u=2 optimal=1 nodes=")
    assert "tree " in out


def test_exact_files(tmp_path):
    src = tmp_path / "g.txt"
    dst = tmp_path / "out.txt"
    src.write_text(serialize_graph(Graph.petersen()))
    assert main(["exact", "--input", str(src), "--output", str(dst)]) == 0
    assert dst.read_text().startswith("u=6 optimal=1")


def test_exact_budget(monkeypatch, capsys):
    # greedy's tree falls short of u here, so the search runs
    src = serialize_graph(random_cubic(random.Random(1), 14))
    feed(monkeypatch, src)
    monkeypatch.setenv("LEAFSPAN_BUDGET", "1")
    assert main(["exact"]) == 0
    assert "optimal=0" in capsys.readouterr().out


def test_exact_long_path(monkeypatch, capsys):
    feed(monkeypatch, serialize_graph(Graph.path(2000)))
    assert main(["exact"]) == 0
    assert capsys.readouterr().out.startswith("u=2 optimal=1 ")


def test_budget_validation(monkeypatch, capsys):
    feed(monkeypatch, TRIANGLE)
    monkeypatch.setenv("LEAFSPAN_BUDGET", "soon")
    assert main(["exact"]) == 2
    assert "LEAFSPAN_BUDGET" in capsys.readouterr().err
    feed(monkeypatch, TRIANGLE)
    monkeypatch.setenv("LEAFSPAN_BUDGET", "0")
    assert main(["exact"]) == 2
    assert "LEAFSPAN_BUDGET must be >= 1" in capsys.readouterr().err


def test_bound_theorem1(monkeypatch, capsys):
    feed(monkeypatch, TRIANGLE)
    assert main(["bound", "--theorem", "1"]) == 0
    out = capsys.readouterr().out
    assert "kind=Theorem1" in out and "s=0" in out
    assert "bound=3/2" in out


def test_bound_kw(monkeypatch, capsys):
    feed(monkeypatch, serialize_graph(Graph.petersen()))
    assert main(["bound", "--theorem", "kw"]) == 0
    assert "bound=9/2" in capsys.readouterr().out


def test_bound_kw_needs_min_degree(monkeypatch, capsys):
    feed(monkeypatch, "0 1\n1 2\n")
    assert main(["bound", "--theorem", "kw"]) == 2
    assert "minimum degree" in capsys.readouterr().err


def test_bound_theorem2(monkeypatch, capsys):
    feed(monkeypatch, serialize_graph(Graph.cycle(5)))
    assert main(["bound", "--theorem", "2", "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "kind=Theorem2" in out and "g=5" in out


def test_bound_theorem2_defaults_k_like_construct(monkeypatch, capsys):
    # the triangle is one chain of 3 degree-2 vertices, so k defaults to 3
    feed(monkeypatch, TRIANGLE)
    assert main(["bound", "--theorem", "2"]) == 0
    out = capsys.readouterr().out
    assert " bound=9/5 " in out and " k=3 " in out
    feed(monkeypatch, TRIANGLE)
    assert main(["construct", "--theorem", "2"]) == 0
    assert " bound=9/5 " in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "triangle-tree", "--n", "1"],
        ["random", "--v", "4"],
        ["verify", "--theorem", "1", "--count", "1"],
    ],
)
def test_only_graph_reading_commands_take_input(argv, tmp_path, capsys):
    # gen, random and verify read no graph, so an --input is refused, not ignored
    assert main([*argv, "--output", str(tmp_path / "out.txt")]) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(tmp_path / "missing.txt")])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err


def test_bound_theorem2_checks_params_like_construct(monkeypatch, capsys):
    feed(monkeypatch, serialize_graph(Graph.cycle(5)))  # u(C5) = 2, below 22/9
    assert main(["bound", "--theorem", "2", "--k", "1"]) == 2
    assert "exceeds k=1" in capsys.readouterr().err


def test_bad_input_exits_2(monkeypatch, capsys):
    feed(monkeypatch, "0 1\n2 3\n")
    assert main(["exact"]) == 2
    assert "connected" in capsys.readouterr().err
    feed(monkeypatch, serialize_graph(Graph.cycle(5)))
    assert main(["construct", "--theorem", "2", "--k", "1"]) == 2
    assert "exceeds k=1" in capsys.readouterr().err
    k4 = Graph.complete(4).edges
    two_k4 = serialize_graph(Graph.build([*k4, *((u + 4, v + 4) for u, v in k4)]))
    for text, err in ((two_k4, "connected"), ("v 0\n", "two vertices")):
        for theorem in ("1", "kw"):
            feed(monkeypatch, text)
            assert main(["bound", "--theorem", theorem]) == 2
            assert err in capsys.readouterr().err


def test_construct_with_trace(monkeypatch, capsys):
    feed(monkeypatch, serialize_graph(Graph.petersen()))
    assert main(["construct", "--theorem", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    assert head.startswith("leaves=") and head.endswith("pass=1")
    assert any(ln.startswith("case=") for ln in out.splitlines())


def test_construct_theorem2_default_k(monkeypatch, capsys):
    feed(monkeypatch, serialize_graph(Graph.cycle(6)))
    assert main(["construct", "--theorem", "2"]) == 0
    assert "pass=1" in capsys.readouterr().out


def test_gen_families(capsys):
    assert main(["gen", "--family", "triangle-tree", "--n", "2"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.v == 10

    assert main(["gen", "--family", "cycle-spine", "--g", "5", "--k", "1"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.v == 12  # sparse regime: n=2, cycle of 6 plus three 2-chains

    assert main(["gen", "--family", "cycle-spine", "--g", "3", "--k", "2"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.v == 12  # dense regime: 3 * (2 + 2)

    assert main(["gen", "--family", "triangle-tree", "--n", "1", "--copies", "2"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.v == 10


def test_gen_missing_params(capsys):
    assert main(["gen", "--family", "triangle-tree"]) == 2
    assert main(["gen", "--family", "cycle-spine", "--g", "5"]) == 2
    capsys.readouterr()


def test_gen_triangle_tree_rejects_g_and_k(capsys):
    for extra in (["--k", "1"], ["--k", "3"], ["--g", "3"]):
        assert main(["gen", "--family", "triangle-tree", "--n", "3", "--copies", "2"] + extra) == 2
        assert "takes no g or k" in capsys.readouterr().err


def test_gen_dense_cycle_spine_rejects_n(capsys):
    assert main(["gen", "--family", "cycle-spine", "--g", "3", "--k", "2", "--n", "2"]) == 2
    assert "takes no n" in capsys.readouterr().err


def test_random_deterministic(capsys):
    assert main(["random", "--v", "8", "--seed", "3"]) == 0
    a = capsys.readouterr().out
    assert main(["random", "--v", "8", "--seed", "3"]) == 0
    assert capsys.readouterr().out == a
    g = parse_graph(a)
    assert g.v == 8 and g.is_connected


def test_random_infeasible(capsys):
    assert main(["random", "--v", "4", "--min-degree", "3", "--girth", "5"]) == 2
    assert "no graph found" in capsys.readouterr().err


def test_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(
        ["verify", "--theorem", "1", "--count", "5", "--max-v", "7", "--output", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[-1].startswith("total=5 passed=5 failed=0")


def test_verify_construct_mode(capsys):
    code = main(["verify", "--theorem", "2", "--count", "5", "--max-v", "7", "--mode", "construct"])
    assert code == 0
    assert "mode=construct" in capsys.readouterr().out


def test_export_dot(monkeypatch, capsys):
    feed(monkeypatch, TRIANGLE)
    assert main(["export-dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph leafspan {") and "1 -- 2;" in out


def test_parse_error_exit(monkeypatch, capsys):
    feed(monkeypatch, "0 0\n")
    assert main(["exact"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_input_file(capsys):
    assert main(["exact", "--input", "/nonexistent/g.txt"]) == 2
    assert "error:" in capsys.readouterr().err
