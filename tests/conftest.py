import json
import os

import pytest

import vcreg


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts on an empty process memo, so no verdict rests on the
    tests that ran before it."""
    vcreg.reset()


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        p = os.path.join(tmp_path, name)
        with open(p, "w") as f:
            json.dump(obj, f)
        return p
    return _write
