"""Usable-core count and the ordered map over worker processes."""
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


class _Context:
    """A context that counts the times this process pickles it."""

    pickled = 0

    def __reduce__(self):
        _Context.pickled += 1
        return _Context, ()


def _task(context, item):
    return item, type(context).__name__, os.getpid()


def test_ordered_map_sends_the_context_once_per_worker(pool_workers, monkeypatch):
    monkeypatch.setattr(_Context, "pickled", 0)
    sizes = pool_workers(2)
    rows = pool.ordered_map(_task, range(40), 2, _Context())
    assert sizes == [2]
    assert [(item, name) for item, name, _ in rows] == [(i, "_Context") for i in range(40)]
    assert os.getpid() not in {pid for _, _, pid in rows}
    # 40 items go out in 16 chunks of at most 3: the context goes with none
    assert _Context.pickled <= 2


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
