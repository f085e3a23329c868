import json
import os

import pytest

from vcreg.instances import (block_pair_graph, half_graph, interval_family,
                             same_block_equivalence)

__all__ = ["block_pair_graph", "half_graph", "interval_family",
           "same_block_equivalence"]


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        p = os.path.join(tmp_path, name)
        with open(p, "w") as f:
            json.dump(obj, f)
        return p
    return _write
