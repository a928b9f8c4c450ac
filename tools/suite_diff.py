"""Compare two suite snapshots and list the deviations that moved.

    python3 tools/suite_diff.py BEFORE.json AFTER.json

Both files are `tools/suite_snapshot.py` outputs.  Prints one tab-separated
row per check whose deviation differs: source, stage, before, after and
after/before.  A source is named by its model and suite seed.  Exits 1 if the
verdicts differ anywhere: a check's `pass` or `tolerance`, a report's
`first_failed` stage, or the set of sources or checks; exits 0 otherwise.
"""

from __future__ import annotations

import json
import sys


def _reports(snapshot: dict) -> dict:
    return {f"{r['model']}@{r['seed']}": r for r in snapshot["reports"]}


def compare(before: dict, after: dict) -> tuple[list[tuple], list[str]]:
    """(moved, verdict_changes): moved rows (source, stage, before, after,
    ratio) and one message per verdict that differs."""
    moved, changes = [], []
    old, new = _reports(before), _reports(after)
    for source in sorted(old.keys() ^ new.keys()):
        changes.append(f"{source}: present in only one snapshot")
    for source in (s for s in old if s in new):
        if old[source].get("first_failed") != new[source].get("first_failed"):
            changes.append(f"{source}: first_failed {old[source].get('first_failed')!r} -> "
                           f"{new[source].get('first_failed')!r}")
        checks_old = {c["name"]: c for c in old[source]["checks"]}
        checks_new = {c["name"]: c for c in new[source]["checks"]}
        for stage in sorted(checks_old.keys() ^ checks_new.keys()):
            changes.append(f"{source} {stage}: present in only one snapshot")
        for stage in (s for s in checks_old if s in checks_new):
            a, b = checks_old[stage], checks_new[stage]
            for key in ("pass", "tolerance"):
                if a[key] != b[key]:
                    changes.append(f"{source} {stage}: {key} {a[key]} -> {b[key]}")
            if a["deviation"] != b["deviation"]:
                ratio = b["deviation"] / a["deviation"] if a["deviation"] else float("inf")
                moved.append((source, stage, a["deviation"], b["deviation"], ratio))
    return moved, changes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    snapshots = []
    for path in argv:
        with open(path) as fh:
            snapshots.append(json.load(fh))
    moved, changes = compare(*snapshots)
    print("source\tstage\tbefore\tafter\tafter/before")
    for source, stage, a, b, ratio in moved:
        print(f"{source}\t{stage}\t{a:.3e}\t{b:.3e}\t{ratio:.3f}")
    print(f"{len(moved)} deviations moved", file=sys.stderr)
    for change in changes:
        print(f"VERDICT CHANGED: {change}", file=sys.stderr)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
