"""The elastic-state lint: the tree is clean, and the linter bites.

Wires ``tools/elastic_state_check.py`` into tier-1: every key an engine
or trainer ``state_dict`` emits must be enumerated in the reshard
mapping's ``ENGINE_STATE_KEYS`` / ``TRAINER_STATE_KEYS``, and the
checker must catch a planted unmapped key (self-test against
silent-pass regressions).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "elastic_state_check.py"
SRC = REPO / "src" / "repro"


def _lint(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(root)],
        capture_output=True,
        text=True,
    )


def _planted_tree(tmp_path: Path) -> Path:
    """A copy of the real lint targets, ready for violation planting."""
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    (root / "elastic").mkdir()
    for rel in (
        "core/engine.py",
        "core/trainer.py",
        "core/simclr_trainer.py",
        "elastic/reshard.py",
    ):
        shutil.copy(SRC / rel, root / rel)
    return root


def test_library_tree_state_dicts_all_reshard():
    proc = _lint(SRC)
    assert proc.returncode == 0, proc.stderr


def test_linter_catches_unmapped_engine_key(tmp_path):
    root = _planted_tree(tmp_path)
    engine = root / "core" / "engine.py"
    src = engine.read_text()
    planted = src.replace(
        '"step_count": self.step_count,',
        '"step_count": self.step_count,\n            "ema": self.ema,',
    )
    assert planted != src, "plant site moved; update the test"
    engine.write_text(planted)
    proc = _lint(root)
    assert proc.returncode == 1
    assert "'ema'" in proc.stderr
    assert "ENGINE_STATE_KEYS" in proc.stderr


def test_linter_catches_unmapped_trainer_key(tmp_path):
    root = _planted_tree(tmp_path)
    trainer = root / "core" / "trainer.py"
    src = trainer.read_text()
    planted = src.replace(
        '"engine": self.engine.state_dict(),',
        '"engine": self.engine.state_dict(),\n            "extra": 1,',
    )
    assert planted != src, "plant site moved; update the test"
    trainer.write_text(planted)
    proc = _lint(root)
    assert proc.returncode == 1
    assert "'extra'" in proc.stderr
    assert "TRAINER_STATE_KEYS" in proc.stderr


def test_linter_sees_through_assigned_then_returned_dicts(tmp_path):
    root = _planted_tree(tmp_path)
    engine = root / "core" / "engine.py"
    src = engine.read_text()
    # Rewrite the literal-return style into the sd = {...}; sd[k] = v;
    # return sd shape with an unmapped key, which the linter must still
    # resolve as top-level.
    planted = src.replace(
        """        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scaler": self.scaler.state_dict(),
            "step_count": self.step_count,
        }""",
        """        sd = {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scaler": self.scaler.state_dict(),
            "step_count": self.step_count,
        }
        sd["sneaky"] = 1
        return sd""",
    )
    assert planted != src, "plant site moved; update the test"
    engine.write_text(planted)
    proc = _lint(root)
    assert proc.returncode == 1
    assert "'sneaky'" in proc.stderr


def test_nested_history_keys_are_not_flagged():
    # trainer.state_dict's history sub-dict carries "losses"/"lrs";
    # those belong to the nested contract and must not trip the lint —
    # the clean-tree test above already proves this, so just assert the
    # keys really are present in the source (guarding the premise).
    src = (SRC / "core" / "trainer.py").read_text()
    assert '"losses"' in src and '"lrs"' in src


def test_nonexistent_root_is_a_usage_error(tmp_path):
    proc = _lint(tmp_path / "missing")
    assert proc.returncode == 2
