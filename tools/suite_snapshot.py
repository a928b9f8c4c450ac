"""Suite reports on a fixed set of sources, with every elapsed time set to 0.

    python3 tools/suite_snapshot.py OUT.json

Run it from the repository root on two commits and compare the two files with
`cmp`: a change that keeps the arithmetic of every check leaves them
byte-identical.  A change that moves deviations on purpose is compared with
`tools/suite_diff.py`, which reads each report's checks and its
`first_failed` stage ("" when every check passes).  The sources are

* the ten group models below, at suite seed 11;
* the two n = 12 unitaries of the verify-dense benchmark workload (workload
  seed 11), written and read back through the CLI's JSON format, at suite
  seeds 11 and 24;
* dihedral:3's W transported by u (x) u for a random unitary u (rng seed 5),
  at suite seed 7: as a dense source, as the pair built from it and as that
  pair's dual.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import dense_unitaries
from qgft import cli, engine, models
from qgft.linalg import kron
from qgft.verify import run_suite

GROUP_SPECS = ("cyclic:1", "cyclic:6", "s3", "dihedral:3", "product:cyclic:2xcyclic:3",
               "dihedral:6", "cyclic:12", "s4", "cyclic:24", "dihedral:12")


def transported_dihedral3() -> np.ndarray:
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    uu = kron(u, u)
    return uu @ models.build(cli.parse_group_spec("dihedral:3")).qg.w @ uu.conj().T


def sources(tmp: Path):
    """(name, suite seed, source) for every report in the snapshot."""
    for spec in GROUP_SPECS:
        yield spec, 11, models.build(cli.parse_group_spec(spec))
    for label, w in dense_unitaries(11):
        path = tmp / f"{label}.json"
        cli.write_json(cli.matrix_to_json(w, 12), str(path))
        for seed in (11, 24):
            yield label, seed, cli.load_unitary(path)
    w = transported_dihedral3()
    qg = engine.pair_from_unitary(w)
    yield "transported-dihedral3", 7, w
    yield "transported-dihedral3-pair", 7, qg
    yield "transported-dihedral3-dual", 7, qg.dual


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed, source in sources(Path(tmp)):
            result = run_suite(source, seed=seed, model_name=name)
            report = result.to_json_dict()
            report["first_failed"] = result.first_failed or ""
            for check in report["checks"]:
                check["elapsed_ms"] = 0.0
            reports.append(report)
    cli.write_json({"reports": reports}, argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
