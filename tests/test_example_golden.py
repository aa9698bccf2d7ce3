"""Golden reports of the six `verify` examples.

`tests/fixtures/example_quantities.json` holds, for each example at seeds
0-2 and 10 samples, the ``repr`` of its report's ``quantities`` and
``witness``.  A change that should keep every report (a speed-up, a
refactor) must leave them byte-identical.  A change that moves a residual
on purpose (an accuracy change) rewrites the file with the other fixtures,
``write_fixtures(FIXTURES)`` in `tests/test_fixtures.py`, and records in
CHANGES.md which entries moved and why.
"""

import json
from pathlib import Path

import pytest

import helpers
from diracpairs import verify

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "example_quantities.json"


def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_example_and_seed():
    assert set(golden()) == {
        f"{name}@seed{seed}" for name in verify.EXAMPLES for seed in helpers.EXAMPLE_SEEDS
    }


@pytest.mark.parametrize("name", sorted(verify.EXAMPLES))
def test_example_reports_match_the_golden_file(name):
    want = golden()
    for seed in helpers.EXAMPLE_SEEDS:
        got = helpers.example_quantities(name, seed)
        assert got == want[f"{name}@seed{seed}"], (name, seed)
