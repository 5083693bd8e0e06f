"""Model document ("jdan-v1") reading and writing.

One JSON file carries everything needed to reproduce a forecaster:
dimension, bounds, architecture, and either the materialized marginal/
correlation parameters (unconditional) or the conditioning network plus
feature scaling (conditional). Floats round-trip exactly through JSON
(repr-based), so a saved model samples bit-identically after reload.
"""

import json

import numpy as np

from .data import ColumnScaler, LoadSpec
from .errors import ConfigError
from .hypernet import ArchitectureDescriptor, ConditioningNet, Forecaster, flatten, materialize

MODEL_VERSION = "jdan-v1"


def _arch_to_dict(arch: ArchitectureDescriptor):
    return {
        "marginal_hidden": [list(map(int, h)) for h in arch.marginal_hidden],
        "activations": list(arch.activations),
        "feature_dim": int(arch.feature_dim),
        "hypernet_hidden": list(map(int, arch.hypernet_hidden)),
    }


def _arch_from_doc(doc):
    a = doc.get("architecture")
    if a is None:
        raise ConfigError("model document lacks an architecture section")
    return ArchitectureDescriptor(
        dim=int(doc["dim"]),
        bounds=[(b["lower"], b["upper"]) for b in doc["bounds"]],
        marginal_hidden=a["marginal_hidden"],
        activations=a["activations"],
        feature_dim=int(a.get("feature_dim", 0)),
        hypernet_hidden=a.get("hypernet_hidden"),
    )


def forecaster_to_doc(fc: Forecaster, data_spec=None, training_state=None):
    doc = {
        "version": MODEL_VERSION,
        "dim": fc.arch.dim,
        "bounds": [{"lower": b.lower, "upper": b.upper} for b in fc.arch.bounds],
        "architecture": _arch_to_dict(fc.arch),
    }
    if fc.conditional:
        net = fc.net
        doc["conditioning"] = {
            "input_dim": net.input_dim,
            "layer_sizes": list(map(int, net.layer_sizes)),
            "activation": net.activation,
            "weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases],
        }
        if fc.feature_scaler is not None:
            doc["feature_scaling"] = {
                "shift": fc.feature_scaler.shift.tolist(),
                "scale": fc.feature_scaler.scale.tolist(),
            }
    else:
        model = fc.model_for()
        doc["marginals"] = [
            {
                "layer_sizes": list(map(int, m.layer_sizes)),
                "activation": m.activation,
                "raw_weights": [w.tolist() for w in m.raw_weights],
                "biases": [b.tolist() for b in m.biases],
            }
            for m in model.marginals
        ]
        doc["correlations"] = {"raw": model.correlations.raw.tolist()}
    if data_spec is not None:
        doc["data_spec"] = {
            "path": data_spec.get("path"),
            "feature_columns": list(data_spec.get("feature_columns", [])),
            "target_columns": list(data_spec.get("target_columns", [])),
            "lag_windows": list(data_spec.get("lag_windows", [])),
        }
    if training_state is not None:
        doc["training_state"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in training_state.items()
        }
    return doc


def _require_finite(what, arrays):
    """JSON admits NaN and Infinity; a model document must not."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ConfigError(f"model document has non-finite {what}")


def doc_to_forecaster(doc) -> Forecaster:
    if doc.get("version") != MODEL_VERSION:
        raise ConfigError(
            f"unsupported model version {doc.get('version')!r}; expected {MODEL_VERSION!r}"
        )
    arch = _arch_from_doc(doc)
    if arch.feature_dim > 0:
        c = doc.get("conditioning")
        if c is None:
            raise ConfigError("conditional model document lacks a conditioning section")
        net = ConditioningNet(
            input_dim=int(c["input_dim"]),
            layer_sizes=[int(s) for s in c["layer_sizes"]],
            weights=[np.asarray(w, dtype=np.float64) for w in c["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in c["biases"]],
            activation=c.get("activation", "sigmoid"),
        )
        _require_finite("conditioning parameters", net.parameters())
        scaler = None
        if "feature_scaling" in doc:
            s = doc["feature_scaling"]
            scaler = ColumnScaler(shift=s["shift"], scale=s["scale"])
            _require_finite("feature scaling", [scaler.shift, scaler.scale])
        return Forecaster(net, arch, feature_scaler=scaler)
    if "marginals" not in doc or "correlations" not in doc:
        raise ConfigError("unconditional model document lacks marginals/correlations")
    # rebuild the flat raw vector through the same partition used to save it
    from .copula import CorrelationParams, JdanModel
    from .marginal import MarginalNetParams

    marginals = [
        MarginalNetParams(
            layer_sizes=[int(s) for s in m["layer_sizes"]],
            raw_weights=[np.asarray(w, dtype=np.float64) for w in m["raw_weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in m["biases"]],
            activation=m.get("activation", "sigmoid"),
        )
        for m in doc["marginals"]
    ]
    model = JdanModel(
        dim=arch.dim,
        marginals=marginals,
        correlations=CorrelationParams(raw=np.asarray(doc["correlations"]["raw"])),
        bounds=list(arch.bounds),
    )
    raw = flatten(model)
    if raw.size != arch.param_count():
        raise ConfigError("stored parameters do not match the stored architecture")
    net = ConditioningNet(input_dim=0, raw=raw)
    return Forecaster(net, arch)  # materialize rejects non-finite parameters


def save_model(path, fc: Forecaster, data_spec=None, training_state=None):
    doc = forecaster_to_doc(fc, data_spec=data_spec, training_state=training_state)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def load_model(path):
    """Returns (forecaster, document)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return doc_to_forecaster(doc), doc
    except KeyError as exc:
        raise ConfigError(f"{path}: model document missing key {exc}") from exc


def load_spec_from_doc(doc) -> LoadSpec:
    ds = doc.get("data_spec")
    if ds is None:
        raise ConfigError("model document carries no data_spec; pass columns explicitly")
    return LoadSpec(
        feature_columns=ds.get("feature_columns", []),
        target_columns=ds.get("target_columns", []),
        lag_windows=ds.get("lag_windows", []),
    )
