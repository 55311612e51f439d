"""Every command of the golden table writes the bytes it wrote when the table
was last rewritten (see tests/golden.py)."""

import golden


def test_every_golden_digest_matches():
    assert golden.changed(golden.load(), golden.compute()) == []
