"""numpy stays the only runtime dependency: every import under src/mtss is
from the standard library, from numpy or from mtss itself. The reference
model of the tests imports numpy and the reserved ids only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mtss"
ALLOWED = {"numpy", "mtss"}


def imported_packages(path: Path):
    """(line, top-level package) of every absolute import in the file at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_mtss():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    foreign = [f"{path.relative_to(SRC)}:{line}: {package}"
               for path in files for line, package in imported_packages(path)
               if package not in sys.stdlib_module_names and package not in ALLOWED]
    assert foreign == []


def test_the_reference_imports_only_numpy_and_the_reserved_ids():
    """``reference.py`` shares no kernel with the code it checks, so the two
    cannot agree by construction."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.Import):
            assert [alias.name for alias in node.names] == ["numpy"], node.lineno
        else:
            assert node.module == "mtss.corpus.vocab" and node.level == 0, node.lineno
            assert {alias.name for alias in node.names} <= {"PAD_ID", "BOS_ID", "EOS_ID", "UNK_ID"}, node.lineno
