"""Which package modules does any entry point reach, and which engine
operators does one construct?  A static inventory.

Walks the import graph with the stdlib ``ast`` module, never importing the
package.  Every ``import``/``from ... import`` in a reached file is
followed, module-level and function-local alike, relative or absolute, and
importing a module also reaches the packages above it (their
``__init__.py`` runs).  The one exception is ``pipelines/queries.py``: it
registers every ``q_*`` query, so following all of its function-local
imports would reach everything.  There the walk follows only the
module-level imports plus the gate queries (the query list of
``CORRECTNESS_r05.json``) through the top-level names they reference,
transitively, and the function-local imports of each definition reached.

Roots: every ``streaming/*`` module, ``pipelines/flagship.py``,
``sources/tokenized.py``, the reference-parity programs
(``pipelines/demo.py``, ``diabetes.py``, ``census.py``, ``sources/csv.py``),
and the imports of ``tools/job.py``, ``__ray_entry__.py`` and
``perfbench/*.py``.

The module walk treats every ``streaming/*`` module as a root, so it cannot
see a dead operator inside the engine.  The op inventory does: the op
classes of ``streaming/engine.py`` are its ``__all__`` minus
``StreamSession`` and ``WindowSpec``, plus every engine class that
subclasses one of them.  An op class is constructed when a root calls it,
calls one of its attributes (a classmethod constructor such as
``WindowSpec.tumbling(...)``) or subclasses it.  The roots here are the
gate-reached ``queries.py`` definitions, the root modules and the root
scripts, not the ``streaming/*`` modules: an ``isinstance`` check and the
engine's own dispatch construct nothing.  Usage::

    python tools/reachability.py [--repo CHECKOUT]

prints one line per package module (reached or UNREACHED, line count,
path), the totals, how many of ``queries.py``'s top-level functions and
classes the gate reaches, then one line per engine op class (constructed
or UNCONSTRUCTED, line count, name) and their total.
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

PKG = "diffdataflowmlpipelines_ray"
QUERIES_MOD = f"{PKG}.pipelines.queries"
ENGINE_MOD = f"{PKG}.streaming.engine"
#: the engine exports that are not operators
NOT_OPS = {"StreamSession", "WindowSpec"}
GATE_FILE = "CORRECTNESS_r05.json"
ROOT_MODULES = [
    f"{PKG}.pipelines.flagship",
    f"{PKG}.sources.tokenized",
    f"{PKG}.pipelines.demo",
    f"{PKG}.pipelines.diabetes",
    f"{PKG}.pipelines.census",
    f"{PKG}.sources.csv",
]
ROOT_SCRIPTS = ["tools/job.py", "__ray_entry__.py", "perfbench/*.py"]


def package_modules(repo: Path) -> dict[str, Path]:
    """Dotted module name → file, for every ``.py`` file of the package."""
    mods = {}
    for path in sorted((repo / PKG).rglob("*.py")):
        parts = list(path.relative_to(repo).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        mods[".".join(parts)] = path
    return mods


def _imports(nodes, this: str, is_pkg: bool, mods: dict) -> set[str]:
    """Package modules named by the import statements among ``nodes``."""
    base = this if is_pkg else this.rpartition(".")[0]
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                pkg = base
                for _ in range(node.level - 1):
                    pkg = pkg.rpartition(".")[0]
                target = f"{pkg}.{node.module}" if node.module else pkg
            else:
                target = node.module or ""
            found.add(target)
            # ``from pkg import submodule``
            found.update(f"{target}.{a.name}" for a in node.names)
    return {m for m in found if m in mods}


def _with_parents(mod: str, mods: dict) -> set[str]:
    out = {mod}
    while "." in mod:
        mod = mod.rpartition(".")[0]
        if mod in mods:
            out.add(mod)
    return out


def _top_level_defs(tree: ast.Module) -> dict[str, ast.AST]:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    defs[t.id] = node
    return defs


def _registry(tree: ast.Module) -> dict[str, str]:
    """Query name → function name, from ``QUERIES = {...}`` and every
    ``QUERIES["name"] = q_fn`` of ``queries.py``."""
    reg = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        t, v = node.targets[0], node.value
        if isinstance(t, ast.Name) and t.id == "QUERIES" \
                and isinstance(v, ast.Dict):
            for k, fn in zip(v.keys, v.values):
                if isinstance(k, ast.Constant) and isinstance(fn, ast.Name):
                    reg[k.value] = fn.id
        elif isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name) \
                and t.value.id == "QUERIES" \
                and isinstance(t.slice, ast.Constant) \
                and isinstance(v, ast.Name):
            reg[t.slice.value] = v.id
    return reg


def _ref_name(node: ast.AST) -> str | None:
    """``Cls`` or ``mod.Cls`` → ``"Cls"``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def engine_ops(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """The op classes of ``engine.py``: ``__all__`` minus ``NOT_OPS``,
    plus every engine class that subclasses one of them."""
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = {e.value for e in node.value.elts}
    ops = (exported - NOT_OPS) & set(classes)
    while True:
        sub = {n for n, c in classes.items() if n not in ops
               and any(_ref_name(b) in ops for b in c.bases)}
        if not sub:
            return {n: classes[n] for n in sorted(ops)}
        ops |= sub


def constructed(nodes, names: set[str]) -> set[str]:
    """Which of the class ``names`` the AST ``nodes`` construct: by a call
    of the class or of one of its attributes, or by a subclass."""
    found: set[str | None] = set()
    for root in nodes:
        for n in ast.walk(root):
            if isinstance(n, ast.Call):
                found.add(_ref_name(n.func))
                if isinstance(n.func, ast.Attribute):  # Cls.classmethod()
                    found.add(_ref_name(n.func.value))
            elif isinstance(n, ast.ClassDef):
                found.update(_ref_name(b) for b in n.bases)
    return found & names


def walk(repo: Path) -> dict:
    mods = package_modules(repo)
    sources = {m: p.read_text() for m, p in mods.items()}
    trees = {m: ast.parse(src, str(mods[m])) for m, src in sources.items()}

    def deps(mod: str) -> set[str]:
        is_pkg = mods[mod].name == "__init__.py"
        tree = trees[mod]
        # queries.py: module-level imports only; the gate walk does the rest
        nodes = tree.body if mod == QUERIES_MOD else ast.walk(tree)
        return _imports(nodes, mod, is_pkg, mods)

    roots = {m for m in mods if m.startswith(f"{PKG}.streaming.")}
    roots.update(ROOT_MODULES)
    scripts = [ast.parse(path.read_text()) for pattern in ROOT_SCRIPTS
               for path in sorted(repo.glob(pattern))]
    for tree in scripts:
        roots |= _imports(ast.walk(tree), "", False, mods)

    # the gate: queries.py top-level definitions reached from the gate queries
    qtree = trees[QUERIES_MOD]
    defs = _top_level_defs(qtree)
    registry = _registry(qtree)
    gate = json.loads((repo / GATE_FILE).read_text())
    todo = [registry[name] for name in gate]
    reached_defs: set[str] = set()
    while todo:
        name = todo.pop()
        if name in reached_defs or name not in defs:
            continue
        reached_defs.add(name)
        for n in ast.walk(defs[name]):
            if isinstance(n, ast.Name) and n.id in defs:
                todo.append(n.id)
    roots.add(QUERIES_MOD)
    for name in reached_defs:
        roots |= _imports(ast.walk(defs[name]), QUERIES_MOD, False, mods)

    reached: set[str] = set()
    todo = sorted(roots)
    while todo:
        mod = todo.pop()
        for m in _with_parents(mod, mods):
            if m not in reached:
                reached.add(m)
                todo.extend(deps(m))

    # engine ops: constructed by the gate's definitions, the root modules
    # or the root scripts
    ops = engine_ops(trees[ENGINE_MOD]) if ENGINE_MOD in trees else {}
    made = constructed(
        [defs[n] for n in reached_defs]
        + [trees[m] for m in ROOT_MODULES if m in trees] + scripts,
        set(ops))

    funcs = {n for n, node in defs.items()
             if not isinstance(node, (ast.Assign, ast.AnnAssign))}
    return {"modules": {m: (m in reached, len(sources[m].splitlines()),
                            mods[m].relative_to(repo))
                        for m in sorted(mods)},
            "queries_defs": (len(reached_defs & funcs), len(funcs)),
            "gate": len(gate),
            "ops": {n: (n in made, c.end_lineno - c.lineno + 1)
                    for n, c in ops.items()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", type=Path,
                    default=Path(__file__).resolve().parents[1],
                    help="checkout to inventory (default: this one)")
    res = walk(ap.parse_args().repo)
    tot = {True: [0, 0], False: [0, 0]}
    for ok, n, path in res["modules"].values():
        print(f"{'reached' if ok else 'UNREACHED':9} {n:6d}  {path}")
        tot[ok][0] += 1
        tot[ok][1] += n
    print(f"reached:   {tot[True][0]} modules, {tot[True][1]} lines")
    print(f"unreached: {tot[False][0]} modules, {tot[False][1]} lines")
    got, of = res["queries_defs"]
    print(f"queries.py: the {res['gate']} gate queries reach {got} of {of} "
          "top-level functions and classes")
    for name, (ok, n) in res["ops"].items():
        print(f"{'constructed' if ok else 'UNCONSTRUCTED':13} {n:6d}  "
              f"streaming/engine.py:{name}")
    made = sum(ok for ok, _ in res["ops"].values())
    print(f"engine ops: {made} of {len(res['ops'])} constructed by a root")


if __name__ == "__main__":
    main()
