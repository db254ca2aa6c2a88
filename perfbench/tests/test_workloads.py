"""Seeded workload configs, and the benchmark's refusal to run without sources."""

import os
import shutil
import subprocess
import sys

from kinkband.config import parse_config

from workloads import DEFAULT_LX, LX_JITTER, WORKLOADS, lx_scale

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_seed_zero_is_the_canonical_config():
    assert lx_scale(0) == 1.0
    config = parse_config(WORKLOADS["kink_20x36"].config_text(0))
    assert (config.Lx, config.nx, config.ny, config.formats) == (42.0, 20, 36, "csv,vtk")


def test_a_seed_always_gives_the_same_config():
    for workload in WORKLOADS.values():
        assert workload.config_text(7) == workload.config_text(7)


def test_other_seeds_only_scale_the_width_a_little():
    scales = {lx_scale(seed) for seed in range(1, 500)}
    assert len(scales) == 499
    assert all(abs(s - 1.0) <= LX_JITTER for s in scales)
    for workload in WORKLOADS.values():
        a, b = (workload.config_items(s) for s in (0, 3))
        assert a.pop("geometry.Lx") == DEFAULT_LX
        assert (b.pop("geometry.Lx") != DEFAULT_LX) == workload.jitter
        assert a == b


def test_the_kink_run_ignores_the_seed():
    kink = WORKLOADS["kink_20x36"]
    assert kink.config_text(5) == kink.config_text(0)


def test_prefix_keeps_the_time_step_of_the_full_program():
    for workload in WORKLOADS.values():
        if workload.prefix_steps:
            config = parse_config(workload.config_text(0))
            assert config.K == workload.prefix_steps
            assert abs(config.T / config.K - 100.0 / workload.program_K) < 1e-12


def test_run_fails_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck_34x61",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
