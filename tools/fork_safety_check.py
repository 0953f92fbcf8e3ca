"""Lint: the library tree must stay safe to run under spawned workers.

The process execution backend (``repro.backend.process``) ships model
replicas to spawned OS processes. Three classes of bugs survive every
unit test on an inline engine and only detonate under multiprocess
execution, so they are enforced statically:

1. **Explicit spawn only.** ``fork`` duplicates BLAS state, live thread
   pools, and open shared-memory handles into the child; ``os.fork`` and
   any ``multiprocessing`` process/pool construction that does not go
   through ``get_context("spawn")`` is flagged (the platform default is
   fork on Linux, so relying on the default is the same bug).
2. **No wall-clock sleeps.** Worker loops synchronize on pipes and
   events; a ``time.sleep`` in library code is either a poll loop
   (burning the latency the backend exists to hide) or a race papered
   over with timing.
3. **No mutated module-level state on the hot path.** A module-level
   dict/list/set that functions mutate after import silently diverges
   between the parent and its spawn replicas (each process re-imports
   and then mutates its own copy). Flagged in the hot-path packages
   (``core``, ``comm``, ``models``, ``backend``); intentional
   per-process registries are whitelisted with a justification.

Usage::

    python tools/fork_safety_check.py [root]

Exits 0 when clean, 1 with one ``path:line: message`` per violation.
Wired into tier-1 via ``tests/test_tooling/test_fork_safety.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages (relative to the lint root) whose module-level mutable state
#: is checked; everything else may keep caches at module scope.
HOT_PATH_DIRS = ("core", "comm", "models", "backend")

#: (relative path, name) pairs allowed to keep mutated module state.
MUTABLE_WHITELIST: frozenset[tuple[str, str]] = frozenset(
    {
        # The shm segment registry is *meant* to be per-process: each
        # process sweeps exactly the segments it created or attached.
        ("backend/shm.py", "_LIVE_SEGMENTS"),
    }
)

#: multiprocessing attributes that create processes without an explicit
#: start-method choice.
PROCESS_FACTORIES = frozenset({"Process", "Pool"})

#: Methods that mutate a container in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "appendleft",
    }
)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"dict", "list", "set", "defaultdict", "deque"}
    return False


def _module_mutables(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers -> def lineno."""
    out: dict[str, int] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not _is_mutable_literal(value):
            continue
        for t in targets:
            if isinstance(t, ast.Name):
                out[t.id] = node.lineno
    return out


def _function_locals(fn: ast.AST) -> set[str]:
    """Names the function binds locally (plain assignment, args, for)."""
    local: set[str] = set()
    args = fn.args
    for a in (
        args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        local.add(a.arg)
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            local.difference_update(node.names)
    return local


def _check_spawn(tree: ast.Module, rel: str) -> list[str]:
    """Rule 1: process creation must be get_context('spawn')."""
    hits: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            if (
                isinstance(owner, ast.Name)
                and owner.id in ("multiprocessing", "mp")
                and func.attr in PROCESS_FACTORIES
            ):
                hits.append(
                    f"{rel}:{node.lineno}: multiprocessing.{func.attr} without "
                    "an explicit start method (use get_context('spawn'))"
                )
            elif (
                isinstance(owner, ast.Name)
                and owner.id == "os"
                and func.attr == "fork"
            ):
                hits.append(f"{rel}:{node.lineno}: os.fork() in library code")
            elif func.attr in ("get_context", "set_start_method"):
                first = node.args[0] if node.args else None
                method = (
                    first.value
                    if isinstance(first, ast.Constant)
                    else None
                )
                if method != "spawn":
                    hits.append(
                        f"{rel}:{node.lineno}: {func.attr}({method!r}) — only "
                        "the explicit 'spawn' start method is fork-safe here"
                    )
    return hits


def _check_sleeps(tree: ast.Module, rel: str) -> list[str]:
    """Rule 2: no time.sleep in library code."""
    hits: list[str] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sleep"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            hits.append(
                f"{rel}:{node.lineno}: time.sleep() in library code "
                "(block on a pipe/event instead)"
            )
    return hits


def _check_module_state(tree: ast.Module, rel: str) -> list[str]:
    """Rule 3: module-level mutables mutated from function bodies."""
    mutables = _module_mutables(tree)
    if not mutables:
        return []
    hits: list[str] = []
    functions = [
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for fn in functions:
        local = _function_locals(fn)
        suspects = {name for name in mutables if name not in local}
        if not suspects:
            continue
        for node in ast.walk(fn):
            name: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in suspects
                    ):
                        name = t.value.id
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in suspects
            ):
                name = node.func.value.id
            if name is not None and (rel, name) not in MUTABLE_WHITELIST:
                hits.append(
                    f"{rel}:{node.lineno}: module-level '{name}' (defined at "
                    f"line {mutables[name]}) mutated post-import — spawn "
                    "replicas will silently diverge"
                )
    return hits


def check_tree(root: Path) -> list[str]:
    """Lint every ``*.py`` under ``root``; return violation messages."""
    violations: list[str] = []
    for py in sorted(root.rglob("*.py")):
        rel = py.relative_to(root).as_posix()
        tree = ast.parse(py.read_text(encoding="utf-8"), filename=rel)
        violations += _check_spawn(tree, rel)
        violations += _check_sleeps(tree, rel)
        if rel.split("/", 1)[0] in HOT_PATH_DIRS:
            violations += _check_module_state(tree, rel)
    return violations


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    root = Path(argv[0]) if argv else Path(__file__).parent.parent / "src" / "repro"
    if not root.is_dir():
        sys.stderr.write(f"not a directory: {root}\n")
        return 2
    violations = check_tree(root)
    for v in violations:
        sys.stderr.write(v + "\n")
    if violations:
        sys.stderr.write(f"{len(violations)} fork-safety violation(s) found\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
