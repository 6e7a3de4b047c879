"""Set-up imports: numpy is loaded only by code that touches an array.

Engine- and service-mode replay never create a buffer, so neither the
library calls nor ``python -m repro.replay`` may load numpy.  Each check
runs in a fresh interpreter, since this one has imported numpy already.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _run(args, profile_dir):
    env = dict(os.environ, MULTICL_PROFILE_DIR=str(profile_dir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH"),
    ]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        check=True,
    )


def test_library_replays_never_load_numpy(tmp_path):
    script = (
        "import sys\n"
        "from repro.core import profile_store\n"
        "from repro.replay import ReplayConfig, run_serial, run_service_replay\n"
        "profile_store.warm([None])\n"
        "run_serial(ReplayConfig(commands=300, tenants=2))\n"
        "print('numpy' in sys.modules)\n"
        "run_service_replay(ReplayConfig(commands=300, tenants=2, chunk=64))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = _run(["-c", script], tmp_path)
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("mode", ["engine", "service"])
def test_replay_cli_never_loads_numpy(tmp_path, mode):
    """``-X importtime`` lists every module the real CLI process imports."""
    proc = _run(
        ["-X", "importtime", "-m", "repro.replay", "--mode", mode,
         "--commands", "300", "--tenants", "2"],
        tmp_path,
    )
    assert "checksum" in proc.stdout
    assert re.search(r"\| +repro\.replay\.runner$", proc.stderr, re.M)
    assert not re.search(r"\| +numpy$", proc.stderr, re.M)


def test_public_names_and_array_paths_work_in_a_fresh_interpreter(tmp_path):
    """With numpy no longer imported by the OpenCL layer, every public name
    still resolves, a buffer still wraps a host array, and a partial fill
    (the one transfer branch that calls numpy) still runs."""
    script = (
        "import numpy as np\n"
        "import repro\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "assert not missing, missing\n"
        "ctx = repro.Platform(profile=False).create_context()\n"
        "q = ctx.create_queue('gpu0')\n"
        "a = ctx.create_buffer(64, host_array=np.zeros(8, np.float64))\n"
        "q.enqueue_fill_buffer(a, 1.0)\n"
        "q.enqueue_fill_buffer(a, 2.5, nbytes=24)\n"
        "q.finish()\n"
        "print(a.array.tolist())\n"
    )
    proc = _run(["-c", script], tmp_path)
    assert proc.stdout.strip() == str([2.5] * 3 + [1.0] * 5)
