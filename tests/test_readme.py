import re
import types
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    rng = np.random.default_rng(0)
    values = np.hstack([rng.normal(0.0, 0.01, (3, 4)), rng.normal(5.0, 0.01, (3, 4))])
    mask = rng.random(values.shape) < 0.8
    mask[0] = True  # every point keeps an observed feature
    namespace = {"values": values, "mask": mask}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["labels"].labels.tolist() == [0] * 4 + [1] * 4


def test_star_import_binds_no_module():
    # A submodule such as ``penalty`` would shadow a caller's variable.
    namespace = {}
    exec("from fusecluster import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert {"mm_cluster", "PenaltySpec", "default_h1_sigma"} <= set(namespace)
