"""BLAS threading: one thread per calling thread by default, and no effect on
results. Each check runs in a fresh interpreter, because numpy reads the
thread count once, when it first loads OpenBLAS."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Scores a validation set above OpenBLAS's threading size and runs one
# local_train whose batches are above it too; prints what the audit records.
RESULTS = """
import json, os, types
import fedshield
import numpy as np
from fedshield import fl

validation = fl.synthetic_dataset(16, 50_000, seed=3)
params = np.random.default_rng(5).standard_normal(50_001) * 0.01
accuracy, loss = fl.evaluate(params, validation)
cfg = types.SimpleNamespace(learning_rate=0.1, local_epochs=2, batch_size=16)
update = fl.local_train(params, fl.synthetic_dataset(32, 50_000, seed=4), cfg, seed=9)
print(json.dumps({"threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "evaluate": [accuracy.hex(), loss.hex()],
                  "params_hash": update.params_hash.hex()}))
"""

# Process CPU of one (16, 50000) matvec plus a 0.2 s sleep, after a warm-up
# call whose pool (if any) has gone idle; an idle OpenBLAS worker that
# busy-waits shows up as about 130 ms of CPU here.
SPIN = """
import json, os, time
import fedshield
import numpy as np

x = np.random.default_rng(0).standard_normal((16, 50_000))
w = np.ones(50_000)
x @ w
time.sleep(0.3)
start = time.process_time()
x @ w
time.sleep(0.2)
print(json.dumps({"threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "cpu_ms": (time.process_time() - start) * 1000}))
"""


def _run(program: str, threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run([sys.executable, "-c", program], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.skipif(os.cpu_count() == 1, reason="a one-core host has no BLAS pool")
def test_import_sets_one_blas_thread_and_keeps_a_preset_count():
    unset = _run(SPIN, None)
    assert unset["threads"] == "1"
    assert unset["cpu_ms"] < 20, unset
    assert _run(SPIN, "2")["threads"] == "2"


def test_blas_thread_count_does_not_change_results():
    one, two = _run(RESULTS, "1"), _run(RESULTS, "2")
    assert (one["threads"], two["threads"]) == ("1", "2")
    assert one["evaluate"] == two["evaluate"]
    assert one["params_hash"] == two["params_hash"]
