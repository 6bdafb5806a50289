"""Regression guard: the per-element scatter path must not creep back.

The compute-plane refactor replaced every ``np.add.at`` /
``np.maximum.at`` / ``Tensor.scatter_add`` call in the model code with
the fused segment ops of ``repro.nn.segment``.  Those scatter primitives
are unbuffered per-element loops; reintroducing one in a hot path would
silently undo the throughput win.  This test fails on any new use inside
``src/repro/core/`` or ``src/repro/baselines/``.

Inside ``repro.nn`` one use remains: ``Tensor.__getitem__``'s backward
for advanced indices, which may repeat an element.  The segment ops and
``Tensor.index_select`` share the ``reduceat`` kernel of
``repro.nn.segment``.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FENCED_DIRS = ("core", "baselines")
FORBIDDEN = re.compile(r"np\.add\.at\(|np\.maximum\.at\(|\.scatter_add\(")


def test_no_scatter_primitives_in_model_code():
    offenders = []
    for dirname in FENCED_DIRS:
        for path in sorted((SRC / dirname).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if FORBIDDEN.search(line):
                    offenders.append(f"{path.relative_to(SRC.parent.parent)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "unbuffered scatter primitives reappeared in model code; use "
        "repro.nn.segment ops with a compiled layout instead:\n" + "\n".join(offenders)
    )


def test_nn_keeps_one_scatter_site():
    sites = [
        f"{path.name}: {line.strip()}"
        for path in sorted((SRC / "nn").rglob("*.py"))
        for line in path.read_text().splitlines()
        if FORBIDDEN.search(line)
    ]
    assert sites == ["tensor.py: np.add.at(full, index, grad)"], sites


def test_guard_scans_the_real_tree():
    # the fence is only meaningful if the directories exist and hold code
    for dirname in FENCED_DIRS:
        assert list((SRC / dirname).glob("*.py")), f"{dirname} not found — guard is vacuous"
