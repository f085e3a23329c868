import json
import os

import pytest


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        p = os.path.join(tmp_path, name)
        with open(p, "w") as f:
            json.dump(obj, f)
        return p
    return _write
