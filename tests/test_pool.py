"""Usable-core count and the shared worker pool."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qeeg
from qeeg import pool


def test_usable_cores_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    assert pool.usable_cores() == 2


@pytest.mark.parametrize("count,expected", [(6, 6), (None, 1)])
def test_usable_cores_without_an_affinity_call(monkeypatch, count, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert pool.usable_cores() == expected


def _initialized():
    return _STATE


_STATE = None


def _set_state(value):
    global _STATE
    _STATE = value


def test_worker_pool_runs_the_initializer():
    with pool.worker_pool(1, _set_state, ("ready",)) as workers:
        assert workers.submit(_initialized).result(timeout=60) == "ready"


def test_cli_import_leaves_the_pool_machinery_unloaded():
    script = ("import sys\n"
              "import qeeg.cli\n"
              "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
              "             if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qeeg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
