"""The public surface: exported names resolve, and the README example runs."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import qeeg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_exist():
    missing = []
    for info in pkgutil.iter_modules(qeeg.__path__):
        module = importlib.import_module(f"qeeg.{info.name}")
        missing += [f"qeeg.{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    for node in ast.walk(ast.parse(Path(qeeg.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            missing += [f"qeeg.{alias.asname or alias.name}" for alias in node.names
                        if not hasattr(qeeg, alias.asname or alias.name)]
    assert not missing


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    acc, p_used = capsys.readouterr().out.split()
    assert 0.0 <= float(acc) <= 100.0 and int(p_used) >= 1
