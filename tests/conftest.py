import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from voazhu.instances import fock, heisenberg_voa, verma, virasoro_voa


@pytest.fixture(scope="session")
def heis():
    return heisenberg_voa()


@pytest.fixture(scope="session")
def vir_half():
    return virasoro_voa("1/2")


@pytest.fixture(scope="session")
def fock_one(heis):
    return fock(1)


@pytest.fixture(scope="session")
def fock_half(heis):
    return fock("1/2")


@pytest.fixture(scope="session")
def verma_ising(vir_half):
    return verma("1/2", "1/16")


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports voazhu from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
