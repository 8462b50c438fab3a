"""Manifest-plus-binary serialization of sampled fields.

A field is stored as a JSON manifest next to a raw little-endian binary
of float64 (re, im) pairs, one pair per component per node, nodes ordered
with x varying fastest, components ordered Ax, Ay, Az, Phi for potential
fields. ``save_field`` writes the binary next to the manifest, named like
it with the suffix ``.bin``, and the manifest's ``data`` entry is that name;
``load_field`` reads ``data`` relative to the manifest's directory, ``..``
or an absolute path included. The round trip is bit exact.
Sampled arrays (``fields.sample_scalar``, ``fields.sample_potential``) and
the arrays ``load_field`` returns are x fastest in memory, the file's order,
so ``save_field`` writes them without a copy; an array in any other layout
is copied into that order one z slice at a time.

``load_field`` memory-maps the binary. It checks the size and the
finiteness of the whole file, by one exact max/min reduction per z slab (both
propagate NaN and reach +-inf), and then copies out either every slice or
only the one z slice a caller asks for, so detecting on one slice does not
decode the whole volume.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fields import (ComplexScalarField, GridSpec, PotentialField, _all_finite,
                     _require_finite)

FORMAT_VERSION = 1


def save_field(field, manifest_path):
    """Write the manifest JSON and its ``.bin`` next to it; returns both paths.

    A manifest path ending in ``.bin`` names the binary itself: ValueError.
    """
    manifest_path = Path(manifest_path)
    data_path = manifest_path.with_suffix(".bin")
    if data_path == manifest_path:
        raise ValueError(f"manifest path {str(manifest_path)!r} ends in .bin; name it .json")
    if isinstance(field, PotentialField):
        kind = "potential"
        arrays = (field.ax, field.ay, field.az, field.phi)
    elif isinstance(field, ComplexScalarField):
        kind = "scalar"
        arrays = (field.values,)
    else:
        raise TypeError(f"cannot save {type(field).__name__}")
    with open(data_path, "wb") as out:
        for arr in arrays:
            # x fastest, as sampled arrays are: the component is one view and one
            # write; any other layout is copied one z slice at a time
            in_order = arr.transpose(2, 1, 0)
            for slab in [in_order] if in_order.flags.c_contiguous else in_order:
                np.ascontiguousarray(slab, dtype="<c16").tofile(out)
    manifest = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "dims": list(field.grid.dims),
        "spacing": list(field.grid.spacing),
        "origin": list(field.grid.origin),
        "time": field.time,
        "data": data_path.name,
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path, data_path


def load_field(manifest_path, z_slice=None):
    """Read a manifest and its binary; returns the reconstructed field.

    With ``z_slice`` = k the whole file is still checked for NaN and +-inf,
    by one max/min reduction per z slab of each component, but only slice k
    is copied: the result lives on the one-slice grid whose origin is node
    (0, 0, k) of the file's grid, so positions found on it are those found
    on slice k of the full field. The returned arrays are x fastest, like
    sampled ones.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"unreadable field manifest {manifest_path}: {exc}") from exc
    try:
        if manifest["version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported field format version {manifest['version']!r}")
        kind = manifest["kind"]
        if kind not in ("scalar", "potential"):
            raise ValueError(f"unknown field kind {kind!r}")
        grid = GridSpec(tuple(manifest["dims"]), tuple(manifest["spacing"]),
                        tuple(manifest["origin"]))
        time = float(manifest["time"])
        data_path = manifest_path.parent / manifest["data"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed field manifest {manifest_path}: {exc}") from exc
    names = ("ax", "ay", "az", "phi") if kind == "potential" else ("scalar",)
    nx, ny, nz = grid.dims
    expected = grid.node_count * len(names) * 16
    try:
        size = data_path.stat().st_size
        if size != expected:
            raise ValueError(f"field data {data_path} has {size} bytes, expected {expected}")
        # a plain ndarray view: a memmap slab costs more to slice than to check
        data = np.asarray(np.memmap(data_path, dtype="<c16", mode="r",
                                    shape=(len(names), nz, ny, nx)))
    except OSError as exc:
        raise ValueError(f"unreadable field data {data_path}: {exc}") from exc
    # a node is finite when its re and im parts both are
    for name, component, parts in zip(names, data, data.view("<f8")):
        if not all(_all_finite(slab) for slab in parts):
            # reports the first non-finite node in (i, j, k) order
            _require_finite(component.transpose(2, 1, 0), f"{name} value")
    if z_slice is not None:
        if not 0 <= z_slice < nz:
            raise ValueError(f"slice {z_slice} out of range for {nz} slice(s)")
        ox, oy, oz = grid.origin
        grid = GridSpec((nx, ny, 1), grid.spacing, (ox, oy, oz + z_slice * grid.spacing[2]))
        data = data[:, z_slice:z_slice + 1]
    components = [np.array(c).transpose(2, 1, 0) for c in data]
    if kind == "scalar":
        return ComplexScalarField(grid, time, components[0])
    return PotentialField(grid, time, *components)
