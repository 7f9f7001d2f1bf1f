"""Source guards over src/flowlab, read with the standard library's ast: no
module imports a name it does not use, every module-level private function
and class is referenced, and the single-caller layers that were folded into
their callers stay gone."""

import ast
from pathlib import Path

import pytest

import flowlab

SRC = Path(flowlab.__file__).parent
MODULES = {path.stem: path for path in sorted(SRC.glob("*.py"))}

# imported and unused on purpose: perfbench/traced_cli.py subclasses
# estimators.ThreadPoolExecutor when it installs
KEPT_IMPORTS = {("estimators", "ThreadPoolExecutor")}

# folded into their one caller: a truncation is a plain CoefficientSystem,
# the moment window a function, a member built in MollifiedFamily.member
# and --seed and --out applied by parse_config
DELETED = ("TruncatedSystem", "MomentWindow", "_build_member",
           "_apply_overrides")


def parse(stem):
    return ast.parse(MODULES[stem].read_text(), filename=str(MODULES[stem]))


def imported_names(tree, stem):
    """The names the module's imports bind, except __future__ features and
    the package's re-exports in __init__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (stem == "__init__"
                                               and node.level > 0):
                continue
            yield from (a.asname or a.name for a in node.names)


def exported(tree):
    """The strings of the module's __all__, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def referenced(tree):
    """Every name the module reads: a bare name, an attribute and an
    imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("stem", sorted(MODULES))
def test_every_imported_name_is_used_or_exported(stem):
    tree = parse(stem)
    used = referenced(tree) | exported(tree)
    unused = {name for name in imported_names(tree, stem)
              if name not in used and (stem, name) not in KEPT_IMPORTS}
    assert not unused, f"{stem}.py imports {sorted(unused)} and never uses it"


def test_every_private_module_level_def_is_referenced():
    trees = {stem: parse(stem) for stem in MODULES}
    used = set().union(*map(referenced, trees.values()))
    unreferenced = [f"{stem}.{node.name}" for stem, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and node.name not in used]
    assert not unreferenced, f"never referenced: {unreferenced}"


@pytest.mark.parametrize("stem", sorted(MODULES))
def test_folded_layers_stay_gone(stem):
    text = MODULES[stem].read_text()
    assert [name for name in DELETED if name in text] == []
    subclasses = [node.name for node in ast.walk(parse(stem))
                  if isinstance(node, ast.ClassDef)
                  and any(getattr(base, "id", getattr(base, "attr", None))
                          == "CoefficientSystem" for base in node.bases)]
    assert subclasses == [], "a CoefficientSystem is built, not subclassed"
