"""One of each (source-level lint): the serving tier keeps a single copy of
the jobs it used to do twice.

* one ``asyncio.open_connection(`` under ``src/repro/service/``: every
  client connection is dialled by ``httpio``, the load generator's included;
* one function under ``src/`` constructs ``ShardProcess``: ``repro fleet``
  and ``repro fleet-chaos`` spawn and restart replicas through it;
* ``argparse.ArgumentParser(`` only in ``cli.py`` and ``loadgen.py``: every
  other command is a ``repro`` verb.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _occurrences(root: Path, needle: str) -> list[str]:
    """``path:line`` of every line under ``root`` that contains ``needle``."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if needle in line:
                hits.append(f"{path.relative_to(REPO)}:{lineno}")
    return hits


class _Constructors(ast.NodeVisitor):
    """The innermost function around each call of ``name``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.scope: list[str] = []
        self.found: set[str] = set()

    def _function(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if called == self.name:
            self.found.add(self.scope[-1] if self.scope else "<module>")
        self.generic_visit(node)


class TestOneOfEach:
    def test_one_open_connection_in_the_service_tier(self):
        hits = _occurrences(SRC / "service", "asyncio.open_connection(")
        assert len(hits) == 1 and hits[0].startswith("src/repro/service/httpio.py:"), hits

    def test_one_function_constructs_shard_processes(self):
        sites = set()
        for path in sorted(SRC.rglob("*.py")):
            visitor = _Constructors("ShardProcess")
            visitor.visit(ast.parse(path.read_text()))
            sites |= {f"{path.relative_to(REPO)}::{fn}" for fn in visitor.found}
        assert sites == {"src/repro/service/fleet.py::spawn_replicas"}

    def test_argument_parsers_only_in_the_two_entry_points(self):
        files = {hit.rsplit(":", 1)[0] for hit in _occurrences(SRC, "ArgumentParser(")}
        assert files == {"src/repro/cli.py", "src/repro/service/loadgen.py"}
