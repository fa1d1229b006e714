"""Every exact ``qpt`` report and every ``qst`` report and dataset in
``tests/golden/reports.json`` is written again byte for byte; see
``tests/golden/regen.py`` for the runs it covers."""

import pytest

from golden import regen


def test_exact_reports_match_the_manifest(golden_strict):
    differing, other = regen.mismatch(regen.REPORTS, regen.report_digests())
    if differing and other and not golden_strict:
        pytest.skip(f"{', '.join(other)}; reports: {differing}")
    assert not differing, "; ".join([*other, f"reports: {differing}"])
