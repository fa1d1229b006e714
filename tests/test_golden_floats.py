"""Every exact chi and state in ``tests/golden/floats.json`` is computed
again within 1e-12, under every numpy and Python version; see
``tests/golden/regen.py``."""

from golden import regen


def test_exact_chi_and_states_match_the_float_tier():
    differing = regen.float_mismatch(regen.float_values())
    assert not differing, differing
