"""``tools/reachability.py``: the static import-graph and engine-op
inventory.

Two halves: the inventory of this checkout (every entry point reached, the
module list equal to the tree, the static registry parse equal to the live
``QUERIES``, every ``ORACLES`` key a query, every engine op class
constructed by a root, every query name the tools list registered), and
the walk's rules pinned on small synthetic packages written to
``tmp_path`` (relative and absolute imports, function-local imports,
parent packages, the gate-only walk inside ``queries.py``, what constructs
an op class)."""

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


def test_main_prints_one_line_per_module(capsys, monkeypatch, inventory):
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
    n_ops = len(inventory["ops"])
    ops, last = totals[3:3 + n_ops], totals[3 + n_ops:]
    assert all(ln.split()[0] in ("constructed", "UNCONSTRUCTED")
               for ln in ops)
    n_made = sum(ln.split()[0] == "constructed" for ln in ops)
    assert last == [f"engine ops: {n_made} of {n_ops} constructed by a root"]


# ----------------------------------------------------- engine op inventory
def test_every_engine_op_class_is_constructed(inventory):
    """No engine operator survives that only tests construct: a gate
    query, a root module or a root script builds each op class."""
    assert inventory["ops"]
    assert [n for n, (ok, _) in inventory["ops"].items() if not ok] == []


def test_op_classes_cover_what_the_session_adds():
    """Every class ``StreamSession.add`` dispatches on is an op class of the
    inventory, so an op left out of ``__all__`` cannot hide from it."""
    tree = ast.parse((REPO / PKG / "streaming" / "engine.py").read_text())
    session = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                   and n.name == "StreamSession")
    add = next(n for n in session.body if isinstance(n, ast.FunctionDef)
               and n.name == "add")
    dispatched = set()
    for n in ast.walk(add):
        if isinstance(n, ast.Call) and reach._ref_name(n.func) == "isinstance":
            cls = n.args[1]
            elts = cls.elts if isinstance(cls, ast.Tuple) else [cls]
            dispatched.update(reach._ref_name(e) for e in elts)
    assert dispatched
    assert dispatched <= set(reach.engine_ops(tree))


def _literal_names(path: Path, var: str) -> list[str]:
    """The string constants of the collection assigned to ``var`` in
    ``path``; for a conditional value, its ``else`` branch."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == var
                for t in node.targets):
            value = node.value
            if isinstance(value, ast.IfExp):
                value = value.orelse
            return [e.value for e in value.elts]
    raise AssertionError(f"{var} not found in {path}")


@pytest.mark.parametrize("rel,var", [
    ("bench.py", "query_names"),
    ("tools/soak_replicate.py", "DEFAULT_QUERIES"),
    ("tests/test_empty_domains.py", "REPRESENTATIVES"),
])
def test_tools_name_only_registered_queries(rel, var):
    """``bench.py`` indexes ``QUERIES[name]``, so a stale name raises
    ``KeyError`` mid-run; every query-name list of the tools is checked
    statically against the registry."""
    from diffdataflowmlpipelines_ray.pipelines import queries

    names = _literal_names(REPO / rel, var)
    assert names
    assert [n for n in names if n not in queries.QUERIES] == []


def _literal_path_inserts(src: str) -> list[int]:
    """Lines of ``src`` that put a string literal on ``sys.path``
    (``sys.path.insert(i, "…")`` or ``sys.path.append("…")``)."""
    return [node.lineno for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("insert", "append")
            and ast.unparse(node.func.value) == "sys.path"
            and any(isinstance(a, ast.Constant) and isinstance(a.value, str)
                    for a in node.args)]


def test_tools_import_their_own_checkout():
    """A tool that puts a fixed path first on ``sys.path`` imports and
    checks that checkout, not its own; each derives it from ``__file__``."""
    bad = {p.name: lines for p in sorted((REPO / "tools").glob("*.py"))
           if (lines := _literal_path_inserts(p.read_text()))}
    assert bad == {}
    # the rule itself: a literal is caught, a derived path is not
    assert _literal_path_inserts(
        'import sys\nsys.path.insert(0, "/x")\nsys.path.append("/y")\n'
        "sys.path.insert(0, str(ROOT))\n") == [2, 3]


def _requested_kernels(src: str) -> set[str]:
    """Kernel names ``src`` queues: the string literal that is the first
    argument of a ``…._request(…)`` or ``…._request_rows(…)`` call."""
    return {node.args[0].value for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_request", "_request_rows")
            and node.args and isinstance(node.args[0], ast.Constant)}


def _step_kernels(src: str) -> list[str]:
    """The keys of the ``STEP_KERNELS`` dict literal in ``src``."""
    for node in ast.parse(src).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "STEP_KERNELS"
                for t in node.targets):
            return [k.value for k in node.value.keys]
    raise AssertionError("no STEP_KERNELS literal")


def _methods(src: str, cls: str) -> set[str]:
    tree = ast.parse(src)
    body = next(n for n in tree.body
                if isinstance(n, ast.ClassDef) and n.name == cls).body
    return {n.name for n in body if isinstance(n, ast.FunctionDef)}


def test_step_kernels_are_shard_methods_the_engine_requests():
    """Every ``STEP_KERNELS`` entry is a ``StateShard`` method that
    ``streaming/engine.py`` queues by name, so no entry goes stale."""
    store = (REPO / PKG / "streaming" / "state_store.py").read_text()
    engine = (REPO / PKG / "streaming" / "engine.py").read_text()
    kernels = _step_kernels(store)
    assert kernels
    assert [k for k in kernels if k not in _methods(store, "StateShard")] == []
    assert [k for k in kernels if k not in _requested_kernels(engine)] == []
    # the rule itself: literal first arguments of either call count
    assert _requested_kernels(
        'self._request("a", n, x)\nself._request_rows("b", n)\n'
        'self._request(k, n)\nself.other("c")\n') == {"a", "b"}


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


ENGINE_SRC = """\
    __all__ = ["WindowSpec", "StreamSession", "Called", "ViaClassmethod",
               "Subclassed", "Scripted", "OnlyIsinstance", "OnlyEngine",
               "OnlyOther", "OnlyNonGate", "Base"]


    class WindowSpec:
        pass


    class Called:
        pass


    class ViaClassmethod:
        @classmethod
        def make(cls):
            return cls()


    class Subclassed:
        pass


    class Scripted:
        pass


    class OnlyIsinstance:
        pass


    class OnlyEngine:
        pass


    class OnlyOther:
        pass


    class OnlyNonGate:
        pass


    class Base:
        pass


    class Hidden(Base):  # not exported, still an op class
        pass


    class StreamSession:
        def add(self, op):
            return isinstance(op, (Called, OnlyEngine))

        def run(self):
            return OnlyEngine()
    """


def test_op_construction_rule(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/streaming/engine.py": ENGINE_SRC,
        f"{PKG}/pipelines/flagship.py": """\
            from ..stages import helper
            from ..streaming.engine import (Called, OnlyIsinstance,
                                            Subclassed, ViaClassmethod,
                                            WindowSpec)


            class Mine(Subclassed):
                pass


            def build(x):
                if isinstance(x, OnlyIsinstance):
                    return None
                return [Called(), ViaClassmethod.make(), WindowSpec()]
            """,
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/helper.py": """\
            from ..streaming.engine import OnlyOther
            x = OnlyOther()
            """,
        f"{PKG}/pipelines/queries.py": """\
            from ..streaming import engine


            def q_gate():
                return engine.Hidden()


            def q_other():
                return engine.OnlyNonGate()


            QUERIES = {"gate": q_gate, "other": q_other}
            """,
        "perfbench/run.py": f"from {PKG}.streaming.engine import Scripted\n"
                            "s = Scripted()\n",
    }, gate=["gate"])
    ops = reach.walk(repo)["ops"]
    # StreamSession and WindowSpec are not ops; Hidden subclasses one
    assert set(ops) == {"Called", "ViaClassmethod", "Subclassed", "Scripted",
                        "OnlyIsinstance", "OnlyEngine", "OnlyOther",
                        "OnlyNonGate", "Base", "Hidden"}
    made = {n for n, (ok, _) in ops.items() if ok}
    # a call, a classmethod call, a subclass, a root script, a gate query
    assert made == {"Called", "ViaClassmethod", "Subclassed", "Scripted",
                    "Hidden"}
    # isinstance, the engine's own dispatch and subclasses, a reached
    # module that is not a root and a non-gate query construct nothing
    assert set(ops) - made == {"OnlyIsinstance", "OnlyEngine", "OnlyOther",
                               "OnlyNonGate", "Base"}
    assert ops["Hidden"] == (True, 2)  # (constructed, class lines)


def test_unreached_module_line_count(tmp_path):
    repo = _repo(tmp_path, {
        f"{PKG}/stages/__init__.py": "",
        f"{PKG}/stages/dead.py": "a = 1\nb = 2\nc = 3\n",
    })
    ok, n_lines, path = reach.walk(repo)["modules"][f"{PKG}.stages.dead"]
    assert not ok
    assert n_lines == 3
    assert path == Path(PKG) / "stages" / "dead.py"
