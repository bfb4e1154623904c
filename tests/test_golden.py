"""Pinned report outputs: every report in ``make_golden.GOLDEN`` must equal
its file under ``tests/data/`` byte for byte, with one worker and with a
process pool."""

import numpy as np
import pytest

from steinlab import cli

from make_golden import DATA, GOLDEN, NUMPY_FILE


def assert_matches_golden(name, workers, tmp_path):
    out = tmp_path / name
    assert cli.main([*GOLDEN[name], "--workers", str(workers), "--out", str(out)]) == 0
    pinned = NUMPY_FILE.read_text().strip()
    assert out.read_bytes() == (DATA / name).read_bytes(), (
        f"{name} with --workers {workers} differs from its pinned file, made with numpy "
        f"{pinned}; this run has numpy {np.__version__}. A change that moves a seeded draw "
        "regenerates the files with tests/make_golden.py and says so."
    )


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_equals_pinned_file(name, tmp_path):
    assert_matches_golden(name, 1, tmp_path)


def test_pooled_report_equals_pinned_file(tmp_path):
    assert_matches_golden("jack-report.csv", 2, tmp_path)
