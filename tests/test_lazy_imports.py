"""The batched kernels stay off the import path of the scalar and delta runs.

``repro.core`` serves the kernel names lazily (PEP 562), ``repro.simulation``
does the same for ``run_lifespan_batch``, and ``LifespanSimulator`` imports a
pipeline class only where it builds one.  So importing what a Figure-11 cell
or a lifespan trial needs loads none of the kernel modules; a fresh
interpreter checks it, since this test process may have loaded them already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

KERNEL_MODULES = (
    "repro.core.vectorized",
    "repro.core.sparse",
    "repro.core.sparse_delta",
    "repro.simulation.batch_lifespan",
)

#: what a Figure-11 campaign cell and a lifespan trial import
ENTRY_POINTS = {
    "figure_cell": ("repro", "repro.analysis.experiments", "repro.exec"),
    "lifespan": ("repro", "repro.simulation.lifespan"),
}


def _loaded_after(modules) -> list[str]:
    code = (
        "import importlib, sys\n"
        f"for m in {list(modules)!r}:\n"
        "    importlib.import_module(m)\n"
        f"print(' '.join(m for m in {list(KERNEL_MODULES)!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_kernel_module(entry):
    assert _loaded_after(ENTRY_POINTS[entry]) == []


def test_lazy_names_resolve_to_the_kernels():
    import repro.core as core
    import repro.simulation as simulation
    from repro.core import sparse, vectorized
    from repro.simulation import batch_lifespan

    assert core.VectorizedCDSPipeline is vectorized.VectorizedCDSPipeline
    assert core.compute_cds_sparse is sparse.compute_cds_sparse
    assert simulation.run_lifespan_batch is batch_lifespan.run_lifespan_batch
    assert set(core._LAZY) <= set(core.__all__)
    with pytest.raises(AttributeError):
        core.no_such_name  # noqa: B018
