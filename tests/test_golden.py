"""The engine's outputs match the digests in golden.json byte for byte.

`python scripts/identity.py --write` wrote the file from a trusted tree,
with the numpy version, BLAS build and CPU vector extensions it ran on.
Floating-point bytes depend on those, so on a machine where one differs
this test fails and names it, rather than passing or skipping; rewrite the
file there from a trusted tree.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "scripts" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_digests(tmp_path):
    identity = _identity()
    golden = json.loads(identity.GOLDEN.read_text())
    here = identity.environment()
    differs = {
        key: {"recorded": golden["environment"].get(key), "here": value}
        for key, value in here.items()
        if golden["environment"].get(key) != value
    }
    assert not differs, f"golden.json was written on another set-up: {differs}"
    digests = identity.golden_digests(tmp_path)
    assert list(digests) == list(golden["digests"])
    for name, want in golden["digests"].items():
        assert digests[name] == want, f"first run whose digest differs: {name}"
