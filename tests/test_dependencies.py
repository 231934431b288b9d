import ast
import sys
from pathlib import Path

import ddqn_trader

ALLOWED = {"numpy", "ddqn_trader"}


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the only runtime dependency (pyproject.toml)
    package = Path(ddqn_trader.__file__).parent
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
    assert len(list(package.glob("*.py"))) >= 9  # the scan saw the package
