import runpy
import types
from pathlib import Path

import leafspan

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_public_surface_matches_all():
    assert len(set(leafspan.__all__)) == len(leafspan.__all__)
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
