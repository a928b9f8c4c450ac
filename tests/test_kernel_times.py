"""tools/kernel_times.py on s3, with one timed call per kernel."""

import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "kernel_times", Path(__file__).resolve().parent.parent / "tools" / "kernel_times.py")
kernel_times = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(kernel_times)


def test_kernel_times_on_s3(monkeypatch, capsys):
    monkeypatch.setattr(kernel_times, "REPEATS", 1)
    assert kernel_times.main(["s3"]) == 0
    out = json.loads(capsys.readouterr().out)
    names = [(r["kernel"], r["source"], r["side"]) for r in out["kernels"]]
    projections = ("require_in_m", "fourier")
    dense = []
    for label in ("transported-dihedral6", "dual-cyclic12"):
        dense += [(kernel, label, "") for kernel in (
            "write_json", "load_unitary", "check_pentagon", "slice_spans", "slice_span_m",
            "slice_span_mhat", "pair_from_unitary", "check_antipode")]
        dense += [(kernel, label, side) for side in ("M", "Mhat")
                  for kernel in ("comult_coeff_tensor", *projections)]
        dense += [(check, label, "") for check in (
            "check_sharp_involution", "check_inversion", "check_plancherel", "check_convolution",
            "check_pairing", "check_pairing_axioms", "check_ft_pairing")]
        dense += [("pontryagin_check", label, ""), ("run_suite", label, "")]
    sides = [(kernel, "s3", side) for side in ("M", "Mhat")
             for kernel in ("comult_coeff_tensor", "fourier_table", "pairing_table",
                            "product_constants", "fourier_convolution_tensor",
                            "pairing_inverse_table", "pairing_forward_table", *projections)]
    assert names == [*sides,
                     ("check_pairing_axioms", "s3", ""), ("pontryagin_check", "s3", ""),
                     *dense, ("run_suite", "s3", "")]
    for record in out["kernels"]:
        assert record["best_ms"] > 0 and record["peak_mib"] > 0
    assert out["environment"]["repeats"] == 1


def test_kernel_times_rejects_an_unknown_spec(capsys):
    assert kernel_times.main(["no-such-group.json"]) == 2
    assert "kernel_times:" in capsys.readouterr().err
    assert kernel_times.main(["--help"]) == 2
