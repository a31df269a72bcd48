"""The README's "Library use" block runs as written, so the module import
paths it shows are a tested contract."""

from __future__ import annotations

import re
from pathlib import Path

from subnetmine.evaluation import DEFAULT_ALPHA_GRID
from subnetmine.synth import SynthConfig, generate_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_block_runs(tmp_path, capsys):
    # n >= 50 for c=50, and 20 instances per class for 10 folds
    data = tmp_path / "demo"
    generate_dataset(SynthConfig(n=60, m=40, n_gt=8, seed=3), data)
    code = library_block()
    assert code.count('"data/demo') == 2
    code = code.replace('"data/demo', f'"{data.as_posix()}')
    exec(compile(code, "README.md", "exec"), {})
    mean_accuracy, best_alpha, auc = capsys.readouterr().out.splitlines()[-1].split()
    assert 0.0 <= float(mean_accuracy) <= 1.0 and 0.0 <= float(auc) <= 1.0
    assert float(best_alpha) in DEFAULT_ALPHA_GRID
