"""Every seeded count stack in ``tests/golden/counts.json`` is drawn again
bit for bit; see ``tests/golden/regen.py`` for the runs it covers."""

import pytest

from golden import regen


def test_seeded_counts_match_the_manifest(golden_count_stacks):
    differing, other = regen.mismatch(regen.MANIFEST, regen.digests(golden_count_stacks))
    if differing and other:
        pytest.skip(f"{', '.join(other)}; count stacks: {differing}")
    assert not differing, f"count stacks: {differing}"
