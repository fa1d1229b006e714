"""Every exact ``qpt`` report in ``tests/golden/reports.json`` is written again
byte for byte; see ``tests/golden/regen.py`` for the runs it covers."""

import json
import platform

import numpy as np
import pytest

from golden import regen


def test_exact_reports_match_the_manifest():
    manifest = json.loads(regen.REPORTS.read_text(encoding="utf-8"))
    want = manifest["entries"]
    got = regen.report_digests()
    assert list(got) == list(want), "the manifest lists other reports"
    differing = [name for name in want if got[name] != want[name]]
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    other = [f"{key} {here} (manifest {manifest[key]})"
             for key, here in versions.items() if manifest[key] != here]
    summary = f"{len(differing)} of {len(want)} reports differ: " + "; ".join(differing)
    if differing and other:
        pytest.skip(f"{', '.join(other)}; {summary}")
    assert not differing, summary
