import hashlib
import os
import subprocess
import sys

import pytest

from conftest import REPO

#: SHA-256 of each demo's stdout, run from the repository root with
#: ``PYTHONPATH=src``.  The demos print deterministic output, so a change to
#: any of them must be deliberate.
PINNED_DEMO_STDOUT = {
    "01_triple_store.py": "e908a094599213a180e59b15958f69d76a2893bbea6629bca16159b22af737f0",
    "02_fire_weather_indices.py": "6e8815c6ebb3ea94b85ec45b418b5be885cc103b591cea07909246d458bcd723",
    "03_bands_and_assessment.py": "b129fb474d3e4b6e32bedfc4f98031ff0cc22f998f5b476eb240078c5855309b",
    "04_rule_inference.py": "13bc335157e3207e2e38589cd1b557765734e4967b1f5700e7d13c5569fd34ef",
    "05_query_engine.py": "d28e17d5f6e95c3c043c8331848be08ef943b48bea4ac486ed8573527c98c50b",
    "06_dataset_pipeline.py": "60dc6c368c4fcc2f0c283dc32ccf3aab41b2479eaae84fa35c5e48824b519dd1",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == sorted(PINNED_DEMO_STDOUT)


@pytest.mark.parametrize("demo", sorted(PINNED_DEMO_STDOUT))
def test_demo_stdout_is_pinned(demo):
    done = subprocess.run(
        [sys.executable, f"demos/{demo}"],
        cwd=REPO, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, check=True, timeout=120,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == PINNED_DEMO_STDOUT[demo]
