"""Every command of the golden table writes the bytes it wrote when the table
was last rewritten (see tests/golden.py)."""

import golden


def test_every_golden_digest_matches():
    assert golden.changed(golden.load(), golden.compute()) == []


def test_equal_runs_share_a_digest():
    table = golden.load()
    # criterion 10: --jobs 8 writes what the default --jobs writes
    assert table["project-entity-brackets-reverse-jobs-8"] == \
        table["project-entity-brackets-reverse"]
    # the config file's switch applies, and the flag given on the command line wins
    assert table["project-config-file"] == \
        table["project-relations-brackets-reverse-threshold-drop"]
