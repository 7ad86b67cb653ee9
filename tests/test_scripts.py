"""The example scripts run end to end against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_squaring_error_decay_matches_the_law_at_every_order():
    lines = run_script("squaring_error_decay.py", "--max-order", "6").splitlines()
    assert len(lines) == 1 + 7  # header and orders 0..6
    assert not any("deviates" in line for line in lines)


def test_reproduce_operating_points_runs():
    out = run_script("reproduce_operating_points.py", "--samples", "200")
    assert out.count("budget overall: pass") == 4
    # every stage reports its time and minor page faults
    stages = [line for line in out.splitlines() if line.startswith("elapsed:")]
    assert len(stages) == 4
    assert all(re.fullmatch(r"elapsed: \d+\.\ds, minor page faults: \d+", line) for line in stages)


def test_code_lines_leaves_out_comments_blanks_and_docstrings(tmp_path):
    (tmp_path / "small.py").write_text('''"""A module docstring,
over two lines."""

# a comment
import os  # a trailing comment counts as code


class Box:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a string
        that is not a docstring"""
        return os.sep + text


def g(): """on the def's line"""
''')
    (tmp_path / "empty.py").write_text("# nothing but a comment\n")
    # import, class, def f, the two lines of text, return, def g
    assert run_script("code_lines.py", str(tmp_path)).splitlines() == [
        "0 empty.py", "7 small.py", "7 total",
    ]


def test_plan_census_counts_the_live_plans_at_both_operating_points():
    out = run_script("plan_census.py")
    sums = [line.split() for line in out.splitlines() if line.lstrip().startswith("sum")]
    # hidden widths stored, distinct and live; kernel entries distinct and live
    assert sums == [["sum", "3744", "2584", "1936", "9283", "4987"],
                    ["sum", "19584", "10000", "7528", "36454", "19822"]]
    assert out.count("layer") == 2
