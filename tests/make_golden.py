"""Regenerate the pinned report outputs under ``tests/data/``.

Run from the root of a checkout::

    PYTHONPATH=src python tests/make_golden.py

``test_golden.py`` compares every report in ``GOLDEN`` byte for byte with
its file.  The reports are seeded Monte Carlo, so the files hold only while
the seeded draws do: a change that moves a draw regenerates them with this
script and says so.  The draws come from numpy's PCG64 ``integers`` and
``random``; the numpy version the files were made with is written next to
them.
"""

import sys
from pathlib import Path

import numpy as np

from steinlab import cli

DATA = Path(__file__).resolve().parent / "data"
NUMPY_FILE = DATA / "numpy-version.txt"
ER_GRID = ["--grid", "100,100;200,200;400,400", "--samples", "5000"]
GOLDEN = {
    "er-report-seed12.csv": ["er-report", *ER_GRID, "--seed", "12"],
    "er-report-seed3.json": ["er-report", *ER_GRID, "--seed", "3", "--format", "json"],
    "jack-report.csv": ["jack-report", "--grid", "16,64;32,181.019336;64,512", "--samples", "1000"],
    "jack-report-small.json": ["jack-report", "--grid", "2,1;6,1", "--format", "json"],
}


def main() -> int:
    DATA.mkdir(exist_ok=True)
    for name, args in GOLDEN.items():
        code = cli.main([*args, "--workers", "1", "--out", str(DATA / name)])
        if code:
            return code
    NUMPY_FILE.write_text(np.__version__ + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
