"""Lint: every engine/trainer state-dict field must reshard.

Checkpoint resharding (:mod:`repro.elastic.reshard`) remaps engine and
trainer snapshots across world sizes by *enumerating* their fields — the
``ENGINE_STATE_KEYS`` / ``TRAINER_STATE_KEYS`` frozensets. A field added
to a ``state_dict`` but not to the mapping would load fine in a
same-shape world, pass every non-elastic test, and silently vanish (or
crash) on the first resize. That gap is closed statically:

1. The two frozensets are read out of ``repro/elastic/reshard.py`` as
   literals.
2. Every ``state_dict`` method in the engine/trainer modules is parsed;
   the string keys of the **top-level** dict it returns (nested dicts
   belong to sub-components with their own contracts) must all appear in
   the corresponding frozenset.

Usage::

    python tools/elastic_state_check.py [src/repro]

Exits 0 when clean, 1 with one ``path:line: message`` per violation.
Wired into tier-1 via ``tests/test_tooling/test_elastic_state.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Files whose ``state_dict`` methods feed engine snapshots, and the
#: frozenset in reshard.py that must enumerate their keys.
ENGINE_FILES = ("core/engine.py",)
TRAINER_FILES = ("core/trainer.py", "core/simclr_trainer.py")
RESHARD_FILE = "elastic/reshard.py"


def _frozenset_literal(tree: ast.Module, name: str, rel: str) -> frozenset[str]:
    """Extract ``name = frozenset({...})`` string members from a module."""
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "frozenset"
            and value.args
            and isinstance(value.args[0], (ast.Set, ast.List, ast.Tuple))
        ):
            members = set()
            for elt in value.args[0].elts:
                if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                    raise SystemExit(
                        f"{rel}:{elt.lineno}: {name} member is not a string literal"
                    )
                members.add(elt.value)
            return frozenset(members)
        raise SystemExit(
            f"{rel}:{node.lineno}: {name} must be a frozenset literal of strings"
        )
    raise SystemExit(f"{rel}: no {name} frozenset found")


def _state_dict_keys(fn: ast.FunctionDef) -> list[tuple[str, int]]:
    """String keys of the top-level dicts a ``state_dict`` returns.

    Handles ``return {...}`` directly plus the ``sd = {...}; ...;
    sd["k"] = v; return sd`` shape: subscript-stores onto any local name
    that is eventually returned count as top-level keys too.
    """
    returned_names: set[str] = set()
    keys: list[tuple[str, int]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                for k in node.value.keys:
                    if isinstance(k, ast.Constant) and isinstance(k.value, str):
                        keys.append((k.value, k.lineno))
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
    if returned_names:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if (
                        isinstance(t, ast.Name)
                        and t.id in returned_names
                        and isinstance(node.value, ast.Dict)
                    ):
                        for k in node.value.keys:
                            if isinstance(k, ast.Constant) and isinstance(
                                k.value, str
                            ):
                                keys.append((k.value, k.lineno))
                    elif (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in returned_names
                        and isinstance(t.slice, ast.Constant)
                        and isinstance(t.slice.value, str)
                    ):
                        keys.append((t.slice.value, node.lineno))
    return keys


def _check_file(
    path: Path, rel: str, allowed: frozenset[str], setname: str
) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
    hits: list[str] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "state_dict"):
            continue
        for key, lineno in _state_dict_keys(node):
            if key not in allowed:
                hits.append(
                    f"{rel}:{lineno}: state_dict key {key!r} is not in "
                    f"repro.elastic.reshard.{setname} — add a reshard "
                    "mapping for it or it will be lost on the first "
                    "elastic resize"
                )
    return hits


def check_tree(root: Path) -> list[str]:
    """Lint the engine/trainer state dicts under ``root`` (src/repro)."""
    reshard = root / RESHARD_FILE
    rtree = ast.parse(reshard.read_text(encoding="utf-8"), filename=RESHARD_FILE)
    engine_keys = _frozenset_literal(rtree, "ENGINE_STATE_KEYS", RESHARD_FILE)
    trainer_keys = _frozenset_literal(rtree, "TRAINER_STATE_KEYS", RESHARD_FILE)
    violations: list[str] = []
    for rel in ENGINE_FILES:
        violations += _check_file(root / rel, rel, engine_keys, "ENGINE_STATE_KEYS")
    for rel in TRAINER_FILES:
        violations += _check_file(root / rel, rel, trainer_keys, "TRAINER_STATE_KEYS")
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
        sys.stderr.write(f"{len(violations)} elastic-state violation(s) found\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
