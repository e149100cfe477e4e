import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports dompack from this checkout.

    pytest puts `src` on its own sys.path (pyproject.toml), but a child
    Python sees only PYTHONPATH, so `src` goes first there.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
