"""The Section 5 proof runs on the standard library alone."""

import os
import pathlib
import subprocess
import sys

import repro


def test_security_proof_loads_neither_numpy_nor_scipy():
    code = (
        "import sys\n"
        "import repro.security\n"
        "from repro.core.config import BlockHammerConfig\n"
        "assert repro.security.prove_safety(BlockHammerConfig()).safe\n"
        "small = BlockHammerConfig(\n"
        "    nrh=256, t_refw_ns=500_000.0, t_cbf_ns=500_000.0, nbl=64, cbf_size=1024\n"
        ")\n"
        "assert repro.security.simulate_optimal_attack(small) <= small.nrh_star\n"
        "heavy = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not heavy, heavy\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
