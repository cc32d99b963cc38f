"""Every public top-level name in the package is read by the package.

A function, class or constant that only tests reach is either wired into
the product or deleted, so src/ carries no code the pipeline never runs.
The check reads the source with ast: a public name defined at the top
of a module must be loaded in that module or imported from it by
another one.
"""

import ast
from pathlib import Path

import dosegate

PACKAGE = Path(dosegate.__file__).resolve().parent

# read without an import or a load that ast can see
EXEMPT = {
    # the frozen benchmark tracer's REQUIRED["iwpc"] still names it; it goes
    # when the tracer requires weekly_doses instead
    ("iwpc", "predict_weekly_dose"),
}


def _defined(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _loaded(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported(tree: ast.Module) -> set:
    """(module, name) for each ``from .module import name``."""
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def unread_names(package: Path = PACKAGE) -> list:
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    imported = set().union(*(_imported(tree) for tree in trees.values()))
    unread = []
    for module, tree in trees.items():
        loaded = _loaded(tree)
        for name in sorted(_defined(tree)):
            # build_parser finds each cmd_<command> through globals()
            if module == "cli" and name.startswith("cmd_"):
                continue
            if name in loaded or (module, name) in imported or (module, name) in EXEMPT:
                continue
            unread.append(f"{module}.{name}")
    return unread


def test_every_public_top_level_name_is_read_in_src():
    assert unread_names() == []


def test_the_check_sees_an_unread_name(tmp_path):
    (tmp_path / "a.py").write_text("USED = 1\nUNUSED = 2\n_PRIVATE = 3\n\n\n"
                                   "def helper():\n    return USED\n")
    (tmp_path / "b.py").write_text("from .a import helper\n\n\nclass Orphan:\n    pass\n")
    assert unread_names(tmp_path) == ["a.UNUSED", "b.Orphan"]
