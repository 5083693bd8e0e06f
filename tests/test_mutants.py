"""Committed mutants: each case patches one kernel and names the check that must catch it.

A check that passes on working code shows something only if it fails on broken
code (DeMillo, Lipton & Sayward 1978). Each case runs the check on a bundled
model, first as committed, then under the mutant.
"""

import os

import pytest

from jdan import activations
from jdan import autodiff as ad
from jdan.cli import main
from jdan.data import load_csv
from jdan.model_io import load_model, load_spec_from_doc
from jdan.numerics import sigmoid as np_sigmoid
from jdan.training import grad_check

RUNS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "runs")


@pytest.mark.parametrize("name, features", [("uniform_d2", []),
                                            ("conditional_d2", ["--features", "0.3"])])
def test_unit_slope_in_psi_fails_the_fd_density_check(monkeypatch, capsys, name, features):
    # z' = 1 in the marginal's derivative chain: the closed-form density no longer
    # matches the finite-difference mixed partial of the CDF
    argv = ["verify", "--model", os.path.join(RUNS, f"{name}_model.json"), "--level", "full"]
    assert main(argv + features) == 0
    capsys.readouterr()
    monkeypatch.setattr(activations, "slope", lambda kind, x, z: 1.0)
    assert main(argv + features) == 3
    assert "FAIL  density matches FD mixed partial" in capsys.readouterr().out


def test_doubled_sigmoid_backward_fails_grad_check(monkeypatch):
    # the tape's sigmoid with twice its gradient; only the conditioning net runs on the
    # tape, so the model must be conditional
    fc, doc = load_model(os.path.join(RUNS, "conditional_d2_model.json"))
    ds = load_csv(os.path.join(os.path.dirname(RUNS), "data", "conditional_d2.csv"),
                  load_spec_from_doc(doc))
    x, y = fc.feature_scaler.transform(ds.features[:64]), ds.targets[:64]
    assert grad_check(fc.net, fc.arch, y, x, max_coords=40) <= 1e-4

    def doubled(a):
        out = np_sigmoid(ad.value(a))
        return ad.custom(a, out, lambda g: 2.0 * g * out * (1.0 - out))

    monkeypatch.setitem(activations._TABLE, "sigmoid",
                        (doubled,) + activations._TABLE["sigmoid"][1:])
    assert grad_check(fc.net, fc.arch, y, x, max_coords=40) > 1e-4
