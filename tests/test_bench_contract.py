"""The benchmark's engine imports: every ``plugin_debezium_ray`` module
and name that a ``cdcbench/*.py`` file imports, at module level or
inside a function, exists.  The benchmark's traced replay
(``cdcbench/staged.py``) reaches into the route's internals, so a change
that renames or deletes one of them fails here rather than only when
the benchmark runs.  Parses the files; starts no Ray session."""

import ast
import glob
import importlib
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "plugin_debezium_ray"


def _engine_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` of each engine import in ``cdcbench/*.py``;
    ``name`` is None for a plain ``import module``."""
    out = []
    for path in sorted(glob.glob(os.path.join(REPO, "cdcbench", "*.py"))):
        rel = os.path.relpath(path, REPO)
        with open(path) as f:
            tree = ast.parse(f.read(), filename=rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == PACKAGE:
                out += [(rel, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(rel, a.name, None) for a in node.names
                        if a.name.split(".")[0] == PACKAGE]
    return out


def test_benchmark_imports_exist():
    imports = _engine_imports()
    # the traced replay's hooks into the route are among them
    assert (os.path.join("cdcbench", "staged.py"),
            f"{PACKAGE}.pipelines.streaming_apply", "make_decode_push") \
        in imports
    missing = []
    for rel, module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError as e:
            missing.append(f"{rel}: {module} ({e})")
            continue
        if name is not None and name != "*" and not hasattr(mod, name):
            missing.append(f"{rel}: {module}.{name}")
    assert not missing, missing
