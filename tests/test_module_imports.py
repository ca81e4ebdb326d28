"""Package layout rule: a `_`-prefixed name is private to its module, so no
module of the package imports one from another. Tests may reach into
privates; they are not scanned."""

import ast
from pathlib import Path

import sspilab

PACKAGE = Path(sspilab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("sspilab"):
            continue  # a third-party or standard-library import
        source = "." * node.level + (node.module or "")
        found += [f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in _private_imports(path)] == []



def _names_from_exact(path: Path) -> list[str]:
    """Names `path` imports from exact.py, and exact.py itself if imported."""
    engine = ("exact", "sspilab.exact")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in engine:
            found += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name for alias in node.names if alias.name in engine]
    return found


def test_traced_oracles_import_nothing_from_the_engine():
    # The traced policies and the scalar greedy are the oracles that the
    # batched engine in exact.py is tested against.
    for name in ("policies.py", "feasibility.py"):
        assert _names_from_exact(PACKAGE / name) == [], name


SCALAR_WALKS = {
    "feasibility.py": ("path_walk",),
    "analysis.py": ("candidate_node", "saturation_index", "supporting_event_matching",
                    "supporting_event_transversal", "supporting_event_laminar"),
}


def _names_read(path: Path, roots) -> set[str]:
    """The names the bodies of the functions `roots` of `path` read, and of
    the functions of `path` that they call, to any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        read = {node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name)}
        names |= read
        todo += sorted(read & set(bodies))
    return names


def test_scalar_walks_use_nothing_from_the_engine():
    # analysis.py imports the engine for its verifiers, so the module rule
    # above cannot hold its scalar supporting-event functions apart from it:
    # they and the scalar path walk they read are the oracles of the
    # engine's free-flag and supporting-event tables.
    engine = set(_names_from_exact(PACKAGE / "analysis.py"))
    assert "ConfigEnsemble" in engine
    for module, roots in SCALAR_WALKS.items():
        assert _names_read(PACKAGE / module, roots) & engine == set(), module


def _float_splits(path: Path) -> list[str]:
    """Uses in `path` of `frexp` or `as_integer_ratio`, which split a float
    into exact integer parts."""
    names = {"frexp", "as_integer_ratio"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in names:
            found.append(f"{path.name}:{node.lineno} uses {name}")
    return found


def test_floats_become_exact_integers_only_in_core():
    # `core.exact_integers` is the one exactness rule; every other module
    # sums and compares its integers.
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _float_splits(path)]
    assert hits and all(hit.startswith("core.py:") for hit in hits), hits


def _imported_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_mechanism_runs_the_monte_carlo_chunk_of_simulate():
    # A mechanism chunk is `harness.mc_trials` on the mechanism's draws:
    # the batch, the orders, the policy run and E_OPT are made there only.
    chunk = {"TrialBatch", "policy_run", "reduction_partitions", "optimum_accepts",
             "chunk_orders", "VERTEX_ORDERS", "ARRIVAL_ORDERS"}
    names = _imported_names(PACKAGE / "mechanism.py")
    assert names & chunk == set()
    assert "mc_trials" in names
