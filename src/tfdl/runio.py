"""Run configuration, checkpoint format, CSV writers, and SVG scatter plots.

Checkpoints are a single strict-JSON header line (schema version, segment
names and shapes, plus rebuild metadata, which holds the net's
hyperparameters) followed by the raw little-endian float64 parameter values in
segment order. Loading rejects a checkpoint whose header, size, layout or
values do not check out with ``ConfigurationError`` naming the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .distill import DistillConfig
from .errors import ConfigurationError, NumericsError, check_fields, field_types
from .net import NetSpec, VelocityNet, net_segments
from .schedule import TimestepDistribution
from .teacher import TeacherConfig
from .toydata import DATASET_NAMES

CKPT_SCHEMA = 1

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f")


# -- run configuration -------------------------------------------------------

@dataclass
class DatasetSpec:
    """Arguments of ``toydata.generate``."""
    name: str = field(default="gauss-mix", metadata={"choices": DATASET_NAMES})
    n: int = field(default=20000, metadata={"ge": 2})
    seed: int = field(default=0, metadata={"ge": 0})
    components: int = field(default=3, metadata={"ge": 1})
    comp_std: float = field(default=0.3, metadata={"gt": 0})
    radius: float = field(default=2.0, metadata={"ge": 0})

    __post_init__ = check_fields


@dataclass
class RunConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    net: NetSpec = field(default_factory=NetSpec)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    teacher_seed: int = field(default=1, metadata={"ge": 0})
    distill_seed: int = field(default=2, metadata={"ge": 0})
    eval_seed: int = field(default=3, metadata={"ge": 0})
    eval_cfg_scale: float = field(default=4.5, metadata={"ge": 0, "le": 1e3})
    eval_samples: int = field(default=4096, metadata={"ge": 2})
    out_dir: str = "runs/default"

    __post_init__ = check_fields

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return _build(cls, json.loads(text))


# keys an earlier to_json wrote that are gone, each with the one value that
# reproduces today's behaviour, or a function of the built section giving it:
# that value loads and is dropped, any other exits 3
RETIRED = {TimestepDistribution: {"sigma_d": None}, TeacherConfig: {"lr_decay": "cosine"},
           NetSpec: {"n_freq": lambda spec: spec.width // 2}}


def _build(cls, d, path=""):
    """The dataclass ``cls`` from the JSON section ``d`` at the dotted key
    ``path`` ("" for the whole config), with lists as tuples and dataclass
    fields built recursively. Each ``ConfigurationError`` names its key's path."""
    prefix, where = (f"{path}.", path) if path else ("", "config")
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object, not {d!r}")
    retired = RETIRED.get(cls, {})
    old = {k: d[k] for k in retired.keys() & d.keys()}
    d = {k: v for k, v in d.items() if k not in retired}
    types = field_types(cls)
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    args = {k: _build(types[k], v, prefix + k) if is_dataclass(types[k])
            else tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    try:
        built = cls(**args)
    except ConfigurationError as exc:  # check_fields says "Class.key"; say "section.key"
        raise ConfigurationError(prefix + str(exc).removeprefix(f"{cls.__name__}.")) from None
    for key, value in old.items():
        want = retired[key](built) if callable(retired[key]) else retired[key]
        if value != want:
            raise ConfigurationError(f"{prefix}{key} is retired: only {json.dumps(want)} "
                                     f"loads, not {json.dumps(value)}")
    return built


# -- checkpoints -------------------------------------------------------------

def save_params(path, params, meta=None):
    """Write the checkpoint header line and the float64 segment bytes.

    The header is strict JSON: a non-finite metadata value raises
    ``NumericsError`` naming its key before anything is written. The bytes go
    to a temporary file first and replace ``path`` in one step, so an
    interrupted write never leaves a truncated checkpoint behind; a failed
    write removes the temporary file and re-raises.
    """
    meta = meta or {}
    bad = sorted(k for k, v in meta.items() if isinstance(v, float) and not math.isfinite(v))
    if bad:
        raise NumericsError(f"non-finite checkpoint metadata: {', '.join(bad)}")
    header = {"schema": CKPT_SCHEMA,
              "segments": list(params.names),
              "shapes": {n: list(params.shapes[n]) for n in params.names},
              "meta": meta}
    line = json.dumps(header, sort_keys=True, allow_nan=False).encode() + b"\n"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(line)
            fh.write(params.flat.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _malformed(path, problem):
    return ConfigurationError(f"malformed checkpoint {path}: {problem}")


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def load_checkpoint(path):
    """Return (header dict, flat float64 values) after checking that the
    header is strict JSON (no ``NaN`` or ``Infinity``), its schema, that the
    payload holds exactly the values its segment shapes describe, and that
    every value is finite."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        line, payload = fh.readline(), fh.read()
    try:
        header = json.loads(line.decode(), parse_constant=_reject_constant)
        schema = header.get("schema")
        sizes = [int(np.prod(header["shapes"][n])) for n in header["segments"]]
    except (ValueError, AttributeError, KeyError, TypeError) as exc:
        raise _malformed(path, f"unreadable header ({exc!r})") from None
    if schema != CKPT_SCHEMA:
        raise _malformed(path, f"schema {schema!r}, expected {CKPT_SCHEMA}")
    if len(payload) != 8 * sum(sizes):
        raise _malformed(path, f"{len(payload)} payload bytes where the header "
                               f"describes {8 * sum(sizes)}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise _malformed(path, "non-finite parameter values")
    return header, flat


def save_net(path, net, extra_meta=None):
    meta = net.meta()
    meta.update(extra_meta or {})
    save_params(path, net.params, meta=meta)


def load_net(path):
    """Rebuild a VelocityNet from a checkpoint; returns (net, sidecar metadata).

    The sidecar is the header's metadata less the net's own keys, so a
    re-save takes those from the net alone. Older headers also carry
    ``n_tokens``, ``attention`` and ``n_freq``; a token count other than the
    net's, or a net without the attention block, shows as a segment-layout mismatch.
    """
    header, flat = load_checkpoint(path)
    try:
        meta = header["meta"]
        n_classes = meta["n_classes"]
        spec = NetSpec(**{f.name: meta[f.name] for f in fields(NetSpec)})
        # the layout is checked before the net is built, so a header cannot
        # make the reader allocate a net that its payload does not fill
        fits = ([(n, tuple(header["shapes"][n])) for n in header["segments"]]
                == net_segments(n_classes, spec))
        net = VelocityNet(n_classes, spec) if fits else None
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, f"cannot rebuild the net from its metadata ({exc!r})") from None
    if net is None:
        raise _malformed(path, "segment names or shapes differ from the net its metadata "
                               "describes")
    net.params.flat[:] = flat
    return net, {k: v for k, v in meta.items()
                 if k not in net.meta() and k not in ("n_tokens", "attention", "n_freq")}


# -- CSV / SVG artifacts -----------------------------------------------------

def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        w.writerows(rows)


def write_samples_csv(path, points, labels):
    """Write points as ``x,y,label`` rows."""
    write_csv(path, ["x", "y", "label"],
              [[repr(float(p[0])), repr(float(p[1])), int(l)]
               for p, l in zip(points, labels)])


def scatter_svg(path, points, labels=None, title=""):
    """Self-contained 600x600 scatter with per-class colors and autoscaling."""
    pts = np.asarray(points, dtype=np.float64)
    labels = np.zeros(len(pts), dtype=int) if labels is None else np.asarray(labels)
    lo = pts.min(axis=0) if len(pts) else np.zeros(2)
    hi = pts.max(axis=0) if len(pts) else np.ones(2)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span
    lo, span = lo - margin, span + 2 * margin

    def sx(v):
        return 600.0 * (v - lo[0]) / span[0]

    def sy(v):
        return 600.0 * (1.0 - (v - lo[1]) / span[1])

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 600 600">',
             '<rect width="600" height="600" fill="white"/>']
    if title:
        parts.append(f'<text x="10" y="20" font-size="14">{title}</text>')
    for p, lab in zip(pts, labels):
        c = PALETTE[int(lab) % len(PALETTE)]
        parts.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="2" '
                     f'fill="{c}" fill-opacity="0.6"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
