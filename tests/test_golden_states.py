"""Every state stack in ``tests/golden/states.json`` is reconstructed again
bit for bit, from the golden count stacks and seeded float stacks; see
``tests/golden/regen.py``."""

import json

from golden import regen


def test_reconstructed_states_match_the_manifest(golden_count_stacks):
    want = json.loads(regen.STATES.read_text(encoding="utf-8"))["entries"]
    got = regen.state_digests(golden_count_stacks)
    assert list(got) == list(want), "the manifest lists other stacks"
    differing = [name for name in want if got[name] != want[name]]
    assert not differing, f"{len(differing)} of {len(want)} state stacks differ: " + \
        "; ".join(differing)
