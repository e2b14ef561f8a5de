"""Determinism self-check of the traced replay.

Two replays of the same seeded workloads, in separate interpreters with
different hash seeds, must report identical counts: ``search.*``,
``build.*``, ``wire.*_bytes``, ``qcache.hit_ratio`` and
``qcache.evicted_per_update``.  Later changes cite these as exact.

Run: ``python3 -m pytest servebench -q``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One round of each workload: the claim does not depend on length.
REPLAY = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from repro.service.catalog import GraphCatalog
from replay import replay
from workloads import ENTRY, WORKLOADS, build
out = {}
for name in WORKLOADS:
    wl = build(name, 7)
    root = Path(sys.argv[3]) / name
    GraphCatalog(root).add(ENTRY, wl.data)
    measured = [(i, op) for i, op in enumerate(wl.round + wl.write_round)]
    out[name] = replay(wl, root, wl.warm, measured).counts_only()
print(json.dumps(out, sort_keys=True))
"""


def test_replay_counts_repeat_exactly(tmp_path):
    procs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", REPLAY, str(SRC), str(HERE),
             str(tmp_path / hash_seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        ))
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout.strip().splitlines()[-1]))
    first, second = outputs
    assert first == second
    # The counts are real: each workload exercises its own layers.
    assert first["cache_hit"]["qcache.hit_ratio"] == 1.0
    assert first["cache_hit"]["search.recursions"] == 0
    assert first["engine_bypass"]["search.recursions"] > 0
    assert first["engine_bypass"]["search.guard_pruned"] > 0
    assert 0 < first["update_churn"]["qcache.hit_ratio"] < 1
    assert first["update_churn"]["qcache.evicted_per_update"] > 0
