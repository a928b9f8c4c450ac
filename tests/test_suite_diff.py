"""tools/suite_diff.py on small hand-written snapshots."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "suite_diff", Path(__file__).resolve().parent.parent / "tools" / "suite_diff.py")
suite_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(suite_diff)


def check(name, deviation, tolerance=1e-10):
    return {"name": name, "pass": deviation <= tolerance, "deviation": deviation,
            "tolerance": tolerance, "elapsed_ms": 0.0}


BEFORE = {"reports": [
    {"model": "s3", "seed": 11, "suite_version": "qgft-suite/1", "first_failed": "",
     "checks": [check("coassociativity", 2e-15), check("pentagon", 0.0, 0.0)]},
    {"model": "dense", "seed": 24, "suite_version": "qgft-suite/1", "first_failed": "",
     "checks": [check("pairing", 4e-14)]},
]}


def after(edit):
    snapshot = copy.deepcopy(BEFORE)
    edit(snapshot["reports"])
    return snapshot


def run(tmp_path, capsys, new):
    paths = []
    for label, snapshot in (("before", BEFORE), ("after", new)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(snapshot))
    code = suite_diff.main([str(p) for p in paths])
    return code, capsys.readouterr()


def test_identical_snapshots_move_nothing(tmp_path, capsys):
    code, out = run(tmp_path, capsys, BEFORE)
    assert code == 0
    assert out.out.splitlines() == ["source\tstage\tbefore\tafter\tafter/before"]


def test_moved_deviation_is_one_row(tmp_path, capsys):
    def edit(reports):
        reports[1]["checks"][0]["deviation"] = 6e-14
    code, out = run(tmp_path, capsys, after(edit))
    assert code == 0
    assert out.out.splitlines()[1:] == ["dense@24\tpairing\t4.000e-14\t6.000e-14\t1.500"]


@pytest.mark.parametrize("edit", [
    lambda r: r[0]["checks"][0].update(deviation=2e-10, **{"pass": False}),
    lambda r: r[0]["checks"][1].update(tolerance=1e-12),
    lambda r: r[1].update(first_failed="pairing"),
    lambda r: r[0]["checks"].pop(),
    lambda r: r.pop(),
])
def test_changed_verdict_exits_non_zero(tmp_path, capsys, edit):
    code, out = run(tmp_path, capsys, after(edit))
    assert code == 1
    assert "VERDICT CHANGED" in out.err
