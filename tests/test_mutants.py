"""Committed mutants: each case patches one kernel and names the check that must catch it.

A check that passes on working code shows something only if it fails on broken
code (DeMillo, Lipton & Sayward 1978). Each case runs the check on a bundled
model, or the bracket lookup's on its adversarial tables, first as committed,
then under the mutant.
"""

import os

import numpy as np
import pytest

from jdan import activations, marginal
from jdan import autodiff as ad
from jdan.cli import main
from jdan.data import load_csv
from jdan.model_io import load_model, load_spec_from_doc
from jdan.numerics import sigmoid as np_sigmoid
from jdan.training import grad_check

from conftest import bracket_mismatches

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


class _FloorForCeil:
    """numpy as the marginal module sees it, with floor where it calls ceil."""

    def __getattr__(self, name):
        return np.floor if name == "ceil" else getattr(np, name)


def _floor_for_ceil(monkeypatch):
    monkeypatch.setattr(marginal, "np", _FloorForCeil())


def _one_cell_right(monkeypatch):
    guide = marginal._guide

    def shifted(top):  # each cell takes the entry of the cell to its right
        first, right = guide(top)
        return np.append(first[1:], first[-1]), right

    monkeypatch.setattr(marginal, "_guide", shifted)


@pytest.mark.parametrize("mutate", [_floor_for_ceil, _one_cell_right],
                         ids=["floor_for_ceil", "one_cell_right"])
def test_guide_table_mutant_fails_the_searchsorted_check(monkeypatch, mutate):
    # floor files a node whose F lies inside a cell under the cell before it, so points in
    # the lower part of that cell start past their bracket; an entry read one cell to the
    # right does the same wherever a node's F falls inside the point's own cell. The check
    # is ``test_inversion.py::test_guide_table_brackets_equal_searchsorted``
    assert bracket_mismatches() == 0
    mutate(monkeypatch)
    assert bracket_mismatches() > 0
