"""The window files that ``repstable repetitive`` writes, byte for byte.

``tests/data/windows/<case>/`` pins ``window.quiver`` and
``window.degrees`` for A3, example4 and the two-loop algebra.  They fix,
among the rest, which socle path is the first side of each binomial
relation.  Regenerate them (only when a change of the files is intended)
with

    PYTHONPATH=src python tests/test_window_files.py
"""

import os
import sys

import pytest

from repstable.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "windows")
EXAMPLE4 = os.path.join(HERE, "..", "src", "repstable", "data",
                        "example4.quiver")
NAMES = ("window.quiver", "window.degrees")

# case -> (presentation text or None for the bundled example4, window)
CASES = {
    "a3": ("vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero a b\n",
           (0, 3)),
    "example4": (None, (-3, 5)),
    "twoloop": ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
                "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n",
                (-2, 5)),
}


def write_window_files(case, work_dir, out_dir):
    """Run ``repstable repetitive`` on one case, writing into ``out_dir``."""
    text, (lo, hi) = CASES[case]
    if text is None:
        path = EXAMPLE4
    else:
        path = os.path.join(work_dir, case + ".quiver")
        with open(path, "w") as fh:
            fh.write(text)
    rc = main(["repetitive", path, "--window", str(lo), str(hi),
               "--out", out_dir])
    assert rc == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_window_files_match_goldens(case, tmp_path, capsys):
    out = str(tmp_path / "out")
    write_window_files(case, str(tmp_path), out)
    for name in NAMES:
        with open(os.path.join(out, name), "rb") as fh:
            produced = fh.read()
        with open(os.path.join(GOLDEN, case, name), "rb") as fh:
            assert produced == fh.read(), name


if __name__ == "__main__":
    import tempfile
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            write_window_files(case, work, os.path.join(GOLDEN, case))
        sys.stdout.write("wrote %s\n" % os.path.join(GOLDEN, case))
