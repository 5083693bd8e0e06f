"""Model document ("jdan-v1") reading and writing.

One JSON file carries everything needed to reproduce a forecaster:
dimension, bounds, architecture, and either the materialized marginal/
correlation parameters (unconditional) or the conditioning network plus
feature scaling (conditional). Floats round-trip exactly through JSON
(repr-based), so a saved model samples bit-identically after reload.
Keys the loader does not know, such as the "training_state" optimizer
block older documents carry, are ignored.
"""

import json
import numbers
import os
import shutil

import numpy as np

from .data import ColumnScaler, LoadSpec
from .errors import ConfigError
from .hypernet import ArchitectureDescriptor, ConditioningNet, Forecaster

MODEL_VERSION = "jdan-v1"


def _arch_to_dict(arch: ArchitectureDescriptor):
    return {
        "marginal_hidden": [list(map(int, h)) for h in arch.marginal_hidden],
        "activations": list(arch.activations),
        "feature_dim": int(arch.feature_dim),
        "hypernet_hidden": list(map(int, arch.hypernet_hidden)),
    }


def _integer(value, what):
    """A count from the document; a fraction or a bool would be truncated, so it is refused."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"model document {what} must be an integer, got {value!r}")
    return int(value)


def _arch_from_doc(doc):
    a = doc.get("architecture")
    if a is None:
        raise ConfigError("model document lacks an architecture section")
    return ArchitectureDescriptor(
        dim=_integer(doc["dim"], "dim"),
        bounds=[(b["lower"], b["upper"]) for b in doc["bounds"]],
        marginal_hidden=a["marginal_hidden"],
        activations=a["activations"],
        feature_dim=_integer(a.get("feature_dim", 0), "architecture.feature_dim"),
        hypernet_hidden=a.get("hypernet_hidden"),
    )


def forecaster_to_doc(fc: Forecaster, data_spec=None):
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
                "layer_sizes": m.layer_sizes,
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
        sizes = [_integer(s, "conditioning.layer_sizes entry") for s in c["layer_sizes"]]
        _agree("conditioning.layer_sizes", sizes,
               [arch.feature_dim, *arch.hypernet_hidden, arch.param_count()])
        net = ConditioningNet(
            input_dim=_integer(c["input_dim"], "conditioning.input_dim"),
            layer_sizes=sizes,
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
    return Forecaster(ConditioningNet(input_dim=0, raw=_raw_from_doc(doc, arch)), arch)


def _agree(what, stored, want):
    if stored != want:
        raise ConfigError(f"model document {what} {stored!r} disagrees with the architecture's "
                          f"{want!r}")


def _raw_from_doc(doc, arch):
    """The flat raw vector, each stored array read into its span of arch.partition()."""
    _agree("marginal count", len(doc["marginals"]), arch.dim)
    spans, (c0, c1) = arch.partition()
    sections = [("correlations", [doc["correlations"]["raw"]], [(c0, c1, (c1 - c0,))])]
    for d, (m, (w_spans, b_spans)) in enumerate(zip(doc["marginals"], spans)):
        what = f"marginal {d + 1}"
        sizes = [_integer(s, "marginal layer_sizes entry") for s in m["layer_sizes"]]
        _agree(f"{what} layer_sizes", sizes, arch.marginal_layer_sizes(d))
        _agree(f"{what} activation", m.get("activation", arch.activations[d]), arch.activations[d])
        sections += [(f"{what} raw_weights", m["raw_weights"], w_spans),
                     (f"{what} biases", m["biases"], [(a, b, (b - a,)) for a, b in b_spans])]
    raw = np.empty(arch.param_count())
    for what, arrays, spans in sections:
        _agree(f"{what} array count", len(arrays), len(spans))
        for k, (array, (a, b, shape)) in enumerate(zip(arrays, spans)):
            array = np.asarray(array, dtype=np.float64)
            _agree(f"{what}[{k}] shape", array.shape, shape)
            raw[a:b] = array.reshape(-1)
    return raw  # materialize rejects non-finite parameters


def write_file(path, write):
    """Have write(fh) fill a text file for path, so that path gets all of it or nothing.

    The text goes to a temporary file beside the file path names, which takes
    that file's mode and replaces it once complete; a symlink's target is
    replaced, not the link. A path that names something other than a file (a
    device, a FIFO, a terminal) is written in place, as there is nothing to replace.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:  # an interrupt too: the old file stays, and the partial one goes
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise


def save_model(path, fc: Forecaster, data_spec=None):
    """Write fc's model document to path, whole or not at all (see ``write_file``)."""
    doc = forecaster_to_doc(fc, data_spec=data_spec)

    def write(fh):
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    write_file(path, write)
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
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed model document ({exc})") from exc


def load_spec_from_doc(doc) -> LoadSpec:
    ds = doc.get("data_spec")
    if ds is None:
        raise ConfigError("model document carries no data_spec; pass columns explicitly")
    return LoadSpec(
        feature_columns=ds.get("feature_columns", []),
        target_columns=ds.get("target_columns", []),
        lag_windows=ds.get("lag_windows", []),
    )
