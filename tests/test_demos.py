"""Every demo script runs to completion and prints exactly its pinned stdout."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout, keyed by its two-digit prefix; a refactor or a
# speed-up must leave these bytes identical, and a change to them must be deliberate
DEMO_STDOUT = {
    "01": "a8e492b3feb7bee7b271dce96df03da0ce5d2fe5e6d199b1cb43169a961c67c9",
    "02": "4ac1c659ed7f626fe755a6e392f732bd720a84232de6ab774ca0d56b5be6dc4c",
    "03": "45e64177ecd292ebb52240f7e6e3f9a3d35eef6e5d94f9ff473707e124402eea",
    "04": "003f6c27dfbe532b3a6f884fc6bf2fc7ebd112d7a4864c7dcd74cdb95e75ef87",
    "05": "d00e474ac00fa98adf4f4b98ebe21aa4f7776f8ab92db7ea134fa2c64261ac26",
    "06": "54a37a6fa676fe0b58b3ad8bc2e59532692e3f5838c87569e1cfec7170ca5b02",
}


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, src_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=src_env, timeout=300)
    stderr = proc.stderr.decode()
    assert proc.returncode == 0, stderr
    assert proc.stdout.strip()
    assert "Traceback" not in stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo.stem[:2]]
