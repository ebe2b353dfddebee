"""``tools/reachability.py``: the static import-graph inventory.

Two halves: the inventory of this checkout (every entry point reached, the
module list equal to the tree, the static registry parse equal to the live
``QUERIES``, every ``ORACLES`` key a query), and the walk's rules pinned on small synthetic packages
written to ``tmp_path`` (relative and absolute imports, function-local
imports, parent packages, the gate-only walk inside ``queries.py``)."""

from __future__ import annotations

import ast
import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PKG = "diffdataflowmlpipelines_ray"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO / "tools" / "reachability.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


reach = _load_tool()


@pytest.fixture(scope="module")
def inventory():
    return reach.walk(REPO)


# ------------------------------------------------------------ this checkout
ENTRY_MODULES = sorted(
    f"{PKG}.streaming" + ("" if p.stem == "__init__" else f".{p.stem}")
    for p in (REPO / PKG / "streaming").glob("*.py")) + [
    f"{PKG}.pipelines.flagship",
    f"{PKG}.sources.tokenized",
    f"{PKG}.pipelines.demo",
    f"{PKG}.pipelines.diabetes",
    f"{PKG}.pipelines.census",
    f"{PKG}.sources.csv",
]


@pytest.mark.parametrize("mod", ENTRY_MODULES)
def test_entry_module_reached(inventory, mod):
    reached, _, _ = inventory["modules"][mod]
    assert reached


def test_inventory_lists_exactly_the_tree(inventory):
    on_disk = {p.relative_to(REPO) for p in (REPO / PKG).rglob("*.py")}
    listed = {path for _, _, path in inventory["modules"].values()}
    assert listed == on_disk
    for _, n_lines, path in inventory["modules"].values():
        assert n_lines == len((REPO / path).read_text().splitlines())


def test_no_module_imports_a_missing_package_module():
    """Every intra-package import in the tree names a module that exists,
    so the walk never silently drops an edge to a deleted file."""
    mods = reach.package_modules(REPO)
    for name, path in mods.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").startswith(PKG):
                assert node.module in mods, (path, node.module)


def test_gate_reaches_every_gate_query(inventory):
    qtree = ast.parse((REPO / PKG / "pipelines" / "queries.py").read_text())
    registry = reach._registry(qtree)
    gate = json.loads((REPO / reach.GATE_FILE).read_text())
    assert inventory["gate"] == len(gate)
    assert all(name in registry for name in gate)
    got, of = inventory["queries_defs"]
    assert len({registry[name] for name in gate}) <= got <= of


def test_static_registry_equals_live_queries():
    """The AST parse of ``QUERIES`` (dict literal plus later subscript
    assignments) names the same queries and functions as the module."""
    from diffdataflowmlpipelines_ray.pipelines import queries

    qtree = ast.parse((REPO / PKG / "pipelines" / "queries.py").read_text())
    registry = reach._registry(qtree)
    assert set(registry) == set(queries.QUERIES)
    for name, fn in registry.items():
        assert queries.QUERIES[name].__name__ == fn


def test_every_oracle_names_a_query():
    """No orphan oracle: each ``ORACLES`` key is a registered query, so
    deleting a query cannot leave its SQL twin behind."""
    from diffdataflowmlpipelines_ray.pipelines import queries

    assert set(queries.ORACLES) - set(queries.QUERIES) == set()


def test_main_prints_one_line_per_module(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["reachability.py", "--repo", str(REPO)])
    reach.main()
    lines = capsys.readouterr().out.splitlines()
    n_mods = len(reach.package_modules(REPO))
    body, totals = lines[:n_mods], lines[n_mods:]
    assert all(ln.split()[0] in ("reached", "UNREACHED") for ln in body)
    assert totals[0].startswith("reached:")
    assert totals[1].startswith("unreached:")
    assert totals[2].startswith("queries.py: the ")
    n_reached = sum(ln.split()[0] == "reached" for ln in body)
    assert totals[0].split()[1] == str(n_reached)


# ------------------------------------------------------- synthetic packages
def _write(root: Path, rel: str, src: str = "") -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(src))


def _repo(tmp_path: Path, files: dict[str, str], gate=()) -> Path:
    """A minimal checkout: the package's ``streaming`` root, the other
    root modules (empty unless given), an empty ``queries.py`` registry
    and the gate file."""
    base = {
        f"{PKG}/__init__.py": "",
        f"{PKG}/streaming/__init__.py": "",
        f"{PKG}/pipelines/__init__.py": "",
        f"{PKG}/sources/__init__.py": "",
        f"{PKG}/pipelines/queries.py": "QUERIES = {}\n",
    }
    for mod in reach.ROOT_MODULES:
        base[mod.replace(".", "/") + ".py"] = ""
    base.update(files)
    for rel, src in base.items():
        _write(tmp_path, rel, src)
    (tmp_path / reach.GATE_FILE).write_text(json.dumps(
        {name: {} for name in gate}))
    return tmp_path


def _reached(repo: Path) -> set[str]:
    return {m for m, (ok, _, _) in reach.walk(repo)["modules"].items() if ok}


def test_relative_import_from_sibling(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": "from .sink import Sink\n",
        f"{PKG}/streaming/sink.py": "Sink = 1\n",
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/lone.py": "",
    })
    got = _reached(repo)
    assert f"{PKG}.streaming.sink" in got
    assert f"{PKG}.stages.lone" not in got
    assert f"{PKG}.stages" not in got


def test_two_level_relative_import(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": "from ..state.aggregates import A\n",
        f"{PKG}/state/__init__.py": "",
        f"{PKG}/state/aggregates.py": "A = 1\n",
    })
    got = _reached(repo)
    assert f"{PKG}.state.aggregates" in got
    # importing a module runs its package's __init__
    assert f"{PKG}.state" in got


def test_from_package_import_submodule(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": "from ..stages import lm\n",
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/lm.py": "",
        f"{PKG}/stages/bpe.py": "",
    })
    got = _reached(repo)
    assert f"{PKG}.stages.lm" in got
    assert f"{PKG}.stages.bpe" not in got


def test_absolute_import(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": f"import {PKG}.stages.lm\n",
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/lm.py": "",
    })
    assert f"{PKG}.stages.lm" in _reached(repo)


def test_function_local_import_followed(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": """\
            def run():
                from ..stages.lm import train
                return train()
            """,
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/lm.py": "def train(): return 1\n",
    })
    assert f"{PKG}.stages.lm" in _reached(repo)


def test_reach_is_transitive(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": "from ..stages import a\n",
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/a.py": "from . import b\n",
        f"{PKG}/stages/b.py": "from .c import x\n",
        f"{PKG}/stages/c.py": "x = 1\n",
    })
    got = _reached(repo)
    assert {f"{PKG}.stages.{m}" for m in "abc"} <= got


def test_script_roots(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/job_only.py": "",
        f"{PKG}/stages/bench_only.py": "",
        f"{PKG}/stages/entry_only.py": "",
        f"{PKG}/stages/nobody.py": "",
        "tools/job.py": f"from {PKG}.stages import job_only\n",
        "perfbench/run.py": """\
            def main():
                from diffdataflowmlpipelines_ray.stages.bench_only import f
            """,
        "__ray_entry__.py": f"import {PKG}.stages.entry_only\n",
    })
    got = _reached(repo)
    for m in ("job_only", "bench_only", "entry_only"):
        assert f"{PKG}.stages.{m}" in got
    assert f"{PKG}.stages.nobody" not in got


QUERIES_SRC = """\
    from ..stages.base import helper_dep


    def _shared():
        from ..stages.shared import s
        return s


    def q_gate():
        return _shared()


    def q_other():
        from ..stages.other import o
        return o


    def q_late():
        from ..stages.late import z
        return z


    QUERIES = {"gate": q_gate, "other": q_other}
    QUERIES["late"] = q_late
    """


def _queries_repo(tmp_path, gate):
    return _repo(tmp_path, {
        f"{PKG}/pipelines/queries.py": QUERIES_SRC,
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/base.py": "helper_dep = 1\n",
        f"{PKG}/stages/shared.py": "s = 1\n",
        f"{PKG}/stages/other.py": "o = 1\n",
        f"{PKG}/stages/late.py": "z = 1\n",
    }, gate=gate)


def test_queries_follows_only_gate_queries(tmp_path):
    got = _reached(_queries_repo(tmp_path, gate=["gate"]))
    # module-level imports of queries.py always run
    assert f"{PKG}.stages.base" in got
    # q_gate → _shared → its function-local import
    assert f"{PKG}.stages.shared" in got
    # non-gate queries' function-local imports are not followed
    assert f"{PKG}.stages.other" not in got
    assert f"{PKG}.stages.late" not in got


def test_queries_subscript_registration_is_a_gate_root(tmp_path):
    got = _reached(_queries_repo(tmp_path, gate=["late"]))
    assert f"{PKG}.stages.late" in got
    assert f"{PKG}.stages.shared" not in got


def test_queries_defs_count(tmp_path):
    res = reach.walk(_queries_repo(tmp_path, gate=["gate"]))
    # q_gate and _shared of the four functions; QUERIES is not counted
    assert res["queries_defs"] == (2, 4)
    assert res["gate"] == 1


def test_registry_parses_dict_and_subscripts():
    reg = reach._registry(ast.parse(textwrap.dedent(QUERIES_SRC)))
    assert reg == {"gate": "q_gate", "other": "q_other", "late": "q_late"}


def test_unreached_module_line_count(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/dead.py": "a = 1\nb = 2\nc = 3\n",
    })
    ok, n_lines, path = reach.walk(repo)["modules"][f"{PKG}.stages.dead"]
    assert not ok
    assert n_lines == 3
    assert path == Path(PKG) / "stages" / "dead.py"
