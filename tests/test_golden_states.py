"""Every state stack in ``tests/golden/states.json`` is reconstructed again
bit for bit, from the golden count stacks and seeded float stacks; see
``tests/golden/regen.py``."""

import pytest

from golden import regen


def test_reconstructed_states_match_the_manifest(golden_count_stacks):
    differing, other = regen.mismatch(regen.STATES, regen.state_digests(golden_count_stacks))
    if differing and other:
        pytest.skip(f"{', '.join(other)}; state stacks: {differing}")
    assert not differing, f"state stacks: {differing}"
