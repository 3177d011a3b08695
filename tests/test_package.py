"""The package's public export list."""

import qsdc


def test_every_export_resolves():
    assert len(set(qsdc.__all__)) == len(qsdc.__all__)
    missing = [name for name in qsdc.__all__ if not hasattr(qsdc, name)]
    assert not missing
