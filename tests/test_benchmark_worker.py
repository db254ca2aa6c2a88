"""The benchmark's worker, ``perfbench/worker.py``, run unchanged on the
package as it stands.  It reads what a run returns and what the problem is
made of: the rows of each ``State``, the keywords ``incremental_step`` is
called with, the ``(records, states)`` pair of ``run_simulation``,
``lift_state`` and ``total_energy``, and ``check-gradient``'s printed error.
A change to any of them fails its checks here, not only in the benchmark."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["stiff_10x18", "gradcheck_34x61"])
def test_the_benchmark_worker_checks_a_unit_ok(name, tmp_path):
    config = tmp_path / "unit.cfg"
    config.write_text(WORKLOADS[name].config_text(0))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", name,
         "--seed", "0", "--config", str(config), "--out", str(tmp_path / "out"),
         "--result", str(result), "--setup-probes", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    unit = json.loads(result.read_text())
    assert unit["ok"], unit["detail"]
