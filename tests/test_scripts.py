"""The example scripts run end to end against the source tree."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from matvecnet import matvec_net, save_fnn

ROOT = Path(__file__).resolve().parent.parent


def script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name, *args):
    proc = script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_squaring_error_decay_matches_the_law_at_every_order():
    lines = run_script("squaring_error_decay.py", "--max-order", "6").splitlines()
    assert len(lines) == 1 + 7  # header and orders 0..6
    assert not any("deviates" in line for line in lines)


def test_reproduce_operating_points_runs():
    out = run_script("reproduce_operating_points.py", "--samples", "200")
    assert out.count("budget overall: pass") == 4
    # the real and complex networks go through a network file bit for bit
    files = [line for line in out.splitlines() if line.startswith("network file: ")]
    assert len(files) == 2 and all(line.endswith("bit-equal: yes") for line in files)
    # and each file's bytes are the reference encoding of its document
    assert out.count("network file equals json.dumps of its document: yes\n") == 2
    # every stage reports its time, minor page faults and the peak RSS so far
    stages = [line for line in out.splitlines() if line.startswith("elapsed:")]
    assert len(stages) == 4
    assert all(re.fullmatch(r"elapsed: \d+\.\ds, minor page faults: \d+, peak RSS: \d+\.\d MiB",
                            line) for line in stages)


def test_reproduce_operating_points_file_check_accepts_only_its_own_document(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "reproduce_operating_points", ROOT / "scripts" / "reproduce_operating_points.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    net = matvec_net(2, 1, 1.0, 2.0 ** -3)
    fresh = tmp_path / "fresh.json"
    save_fnn(net, fresh)
    assert module.is_its_document(net, fresh)
    doc = json.loads(fresh.read_text())
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    other_meta = tmp_path / "other_meta.json"
    other_meta.write_text(json.dumps({**doc, "meta": {**doc["meta"], "D": 2.0}}) + "\n")
    assert not module.is_its_document(net, indented)
    assert not module.is_its_document(net, other_meta)


def test_reproduce_operating_points_prints_the_same_reports_for_any_jobs():
    # three chunks, so every stage runs on two threads
    def reports(jobs):
        out = run_script("reproduce_operating_points.py", "--samples", "4101", "--jobs", jobs)
        return [line for line in out.splitlines()
                if not line.startswith(("elapsed:", "save/load:"))]

    one = reports("1")
    assert sum(line.startswith("errors: sup=") for line in one) == 4
    assert reports("2") == one


@pytest.mark.parametrize("option", ["--samples", "--jobs"])
@pytest.mark.parametrize("value", ["0", "two"])
def test_reproduce_operating_points_rejects_a_bad_count(option, value):
    # --samples 0 used to end in a traceback
    proc = script("reproduce_operating_points.py", option, value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"argument {option}: " in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["30", "-1", "two"])
def test_squaring_error_decay_rejects_a_bad_max_order(value):
    # --max-order 30 used to end in square_error_curve's ValueError traceback
    proc = script("squaring_error_decay.py", "--max-order", value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "argument --max-order: " in proc.stderr and "Traceback" not in proc.stderr


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
    # hidden widths stored, distinct and live; kernel entries and tangent
    # pairs, distinct and live
    assert sums == [["sum", "3744", "2584", "1936", "9283", "4987", "4088", "3152"],
                    ["sum", "19584", "10000", "7528", "36454", "19822", "17552", "13544"]]
    assert out.count("layer") == 2
    # one traced-peak line per operating point; the live proof stays within 0.37 MiB
    peaks = re.findall(r"^traced peak: _distinct ([\d.]+) MiB, _live ([\d.]+) MiB$", out, re.M)
    (real_distinct, real_live), (distinct, live) = [tuple(map(float, p)) for p in peaks]
    assert 0 < real_distinct < distinct and 0 < real_live < live <= 0.37
    # and one line of build times per point, checked by format only
    times = re.findall(r"^median of 9 builds: _distinct \d+\.\d\d ms, _live \d+\.\d\d ms$",
                       out, re.M)
    assert len(times) == 2
