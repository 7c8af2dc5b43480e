"""Point-file persistence and branch CSV export.

A point file holds one point as self-describing JSON: a header (format
version, demo name and config, periodization, active parameters and
layout, ptype, counters, usrlam, ds, ineg) plus the payload arrays u, tau
and uold.  Each fact is stored once: the model time is config["time"], and
the fold-continuation mode follows from spcont.  A run's history is its
branch list, which export_branch writes as CSV; no point file holds it.
So a loaded state starts with an empty branch list, and the next cont
records the loaded point as its first entry.

Format 2, which save_point writes, stores each payload as the base64 string
of its little-endian float64 bytes ('<f8', whatever the host's byte order),
so a point round-trips bit for bit; an absent tau or uold is null.  Format 1
files, whose payloads are JSON lists of floats, still load, and so do older
files of either format that also carry branch, mode, time or err_column;
those keys are ignored.  Operator caches and fill/drop matrices are never
serialized; the loader rebuilds them through the demo registry, so a loaded
point evaluates identically to the saved one.
"""

from __future__ import annotations

import base64
import json
import os

import numpy as np

from . import problem

FORMAT_VERSION = 2
PAYLOAD_DTYPE = np.dtype("<f8")


class IOError_(RuntimeError):
    pass


def _json_config(cfg):
    out = {}
    for k, v in cfg.items():
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        out[k] = v
    return out


def _encode(a):
    if a is None:
        return None
    return base64.b64encode(np.asarray(a, dtype=PAYLOAD_DTYPE).tobytes()
                            ).decode("ascii")


def _decode_v1(v):
    return np.array(v, dtype=float)


def _decode_v2(v):
    try:
        raw = base64.b64decode(v, validate=True)
    except (TypeError, ValueError) as exc:
        raise IOError_(f"bad base64 payload: {exc}") from exc
    if len(raw) % PAYLOAD_DTYPE.itemsize:
        raise IOError_(f"payload of {len(raw)} bytes is not a float64 array")
    # astype copies: frombuffer alone is a read-only view of the bytes
    return np.frombuffer(raw, dtype=PAYLOAD_DTYPE).astype(float)


_DECODERS = {1: _decode_v1, 2: _decode_v2}


def save_point(state, name):
    """Write <dir>/<name>.json atomically (write-temp-rename), in one write
    of one json.dumps, and return its path; name may hold a subdirectory,
    which is created."""
    if not state.file.dir:
        raise IOError_("no output directory set")
    path = os.path.join(state.file.dir, f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "format": FORMAT_VERSION,
        "demo": state.name,
        "config": _json_config(state.demo_config),
        "neq": state.neq,
        "bcper": int(state.switches.bcper),
        "ilam": list(map(int, state.ilam)),
        "nq": int(state.nq),
        "ptype": int(state.ptype),
        "spdata": state.spdata,
        "spcont": int(state.switches.spcont),
        "counters": {"count": state.file.count, "bcount": state.file.bcount,
                     "fcount": state.file.fcount},
        "parnames": list(state.parnames),
        "usrlam": [float(v) for v in state.usrlam],
        "ds": float(state.sol.ds),
        "ineg": int(state.sol.ineg),
        "u": _encode(state.u),
        "tau": _encode(state.tau),
        "uold": _encode(state.uold),
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    os.replace(tmp, path)
    return path


def load_point(directory, name):
    """Rebuild a ProblemState from a point file via the demo registry; its
    branch list starts empty."""
    from . import demos

    path = os.path.join(directory, name if name.endswith(".json")
                        else f"{name}.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IOError_(f"cannot read point file {path}: {exc}") from exc
    decode = _DECODERS.get(doc.get("format"))
    if decode is None:
        raise IOError_(f"unsupported point-file format {doc.get('format')!r}")

    state = demos.make(doc["demo"], doc["config"])
    if state.neq != doc["neq"]:
        raise IOError_("point file is inconsistent with the demo definition")
    if int(doc["bcper"]) != state.switches.bcper:
        state.switches.bcper = int(doc["bcper"])
        problem.setfemops(state)

    state.switches.spcont = int(doc["spcont"])
    # spdata follows from spcont and the periodization, so it is only checked
    spd = doc["spdata"]
    if spd is not None:
        spd = {"nu_base": spd["nu_base"]}    # older files add old_primary
    if spd != state.spdata:
        raise IOError_(f"point file's fold-continuation layout {spd} does not "
                       f"match the problem's {state.spdata}")
    state.nq = int(doc["nq"])
    state.ilam = [int(i) for i in doc["ilam"]]
    state.ptype = int(doc["ptype"])
    state.file.count = int(doc["counters"]["count"])
    state.file.bcount = int(doc["counters"]["bcount"])
    state.file.fcount = int(doc["counters"]["fcount"])
    state.usrlam = [float(v) for v in doc["usrlam"]]
    state.sol.ds = float(doc["ds"])
    state.sol.ineg = int(doc["ineg"])
    u = decode(doc["u"])
    if len(u) != state.nu + len(doc["parnames"]):
        raise IOError_("unknown-vector length does not match the problem")
    state.u = u
    state.tau, state.uold = (None if doc[k] is None else decode(doc[k])
                             for k in ("tau", "uold"))
    state.file.dir = directory
    return state


# ---------------------------------------------------------------------------
# branch CSV

def branch_header(state):
    parcols = [state.parnames[i - 1] for i in state.ilam]
    return (["count", "ptype"] + list(parcols)
            + ["ineg", "l2norm", "usr"] + list(state.callbacks.outnames))


def export_branch(state, path=None):
    """CSV with one row per branch record; returns the CSV text."""
    if not state.branch:
        raise IOError_("branch is empty")
    lines = [",".join(branch_header(state))]
    for rec in state.branch:
        cells = ([str(rec.count), str(rec.ptype)]
                 + [repr(v) for v in rec.pars]
                 + [str(rec.ineg), repr(rec.l2norm), str(rec.usr)]
                 + [repr(v) for v in rec.user])
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path:
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    return text


def read_branch_csv(path):
    """Parse an exported CSV back into (header, rows of floats)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows
