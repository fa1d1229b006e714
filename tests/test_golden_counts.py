"""Every seeded count stack in ``tests/golden/counts.json`` is drawn again
bit for bit; see ``tests/golden/regen.py`` for the runs it covers."""

import json

from golden import regen


def test_seeded_counts_match_the_manifest(golden_count_stacks):
    want = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))["entries"]
    got = regen.digests(golden_count_stacks)
    assert list(got) == list(want), "the manifest lists other runs"
    differing = [name for name in want if got[name] != want[name]]
    assert not differing, f"{len(differing)} of {len(want)} count stacks differ: " + \
        "; ".join(differing)
