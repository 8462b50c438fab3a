"""Manifest-plus-binary serialization of sampled fields.

A field is stored as a JSON manifest next to a raw little-endian binary
of float64 (re, im) pairs, one pair per component per node, nodes ordered
with x varying fastest, components ordered Ax, Ay, Az, Phi for potential
fields. ``save_field`` writes the binary next to the manifest, named like
it with the suffix ``.bin``, and the manifest's ``data`` entry is that name;
``load_field`` reads ``data`` relative to the manifest's directory, ``..``
or an absolute path included. The round trip is bit exact.

``write_field`` writes a field from slabs of z planes, each component's
bytes at their offset in the file, so a caller that samples one slab at a
time (``generate``) never holds the whole field; ``save_field`` is
``write_field`` of a field's own arrays as one slab. Sampled arrays
(``fields.sample_slab`` and the samplers on it) and the arrays ``load_field``
returns are x fastest in memory, the file's order, so they are written
without a copy, in runs that end on ``RUN_BYTES`` file offsets; an array in
any other layout is copied into that order one z slice at a time. The binary
goes to a temporary file beside it, which replaces the old binary only when
it is complete.

``load_field`` memory-maps the binary. It checks the size and the
finiteness of the whole file one ``WINDOW_BYTES`` window at a time, by one
sum over the window's float64 values (NaN and +-inf propagate through it;
only a sum that is not finite, which finite values reach by overflow, takes
an exact max/min reduction to decide), and drops each window's pages after
its check, so the check holds one window in memory. It then copies out
either every slice or only the one z slice a caller asks for, so detecting
on one slice does not decode the whole volume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .fields import (ComplexScalarField, GridSpec, PotentialField, _all_finite,
                     _require_finite)

FORMAT_VERSION = 1

# write_field writes each component's bytes in runs that end on multiples of
# RUN_BYTES in the file (or at the component's end): written in small pieces, a
# file lands in small page-cache folios, and a scan of its mapping faults more
RUN_BYTES = 2 << 20
# load_field checks finiteness one window of the mapped binary at a time and
# drops each window's pages after its check; a multiple of the page size
WINDOW_BYTES = 8 << 20


def _names(kind):
    return ("ax", "ay", "az", "phi") if kind == "potential" else ("scalar",)


def _write_run(fd, pending, offset, stop):
    """Write the pending byte arrays, end to end, at file offsets [offset, stop)
    (one ``pwritev`` a run, whatever the pieces) and drop the written bytes."""
    while offset < stop:
        pieces, size = [], 0
        for piece in pending:
            if size == stop - offset:
                break
            pieces.append(piece[:stop - offset - size])
            size += pieces[-1].size
        done = os.pwritev(fd, pieces, offset)
        offset += done
        while done:
            head = pending.pop(0)
            if head.size > done:
                pending.insert(0, head[done:])
                break
            done -= head.size
    return offset


def write_field(manifest_path, kind, grid, time, slabs):
    """Write a field's manifest and its ``.bin`` from slabs of z planes; returns both paths.

    ``slabs`` yields, for consecutive runs of z planes from plane 0, the
    ``kind``'s components there (Ax, Ay, Az, Phi, or the scalar), each shaped
    (nx, ny, planes). Each component's bytes go to their offset in the file. An
    x fastest array, as sampled ones are, is in the file's order: it is written
    without a copy, in runs that end on RUN_BYTES boundaries. Any other layout
    is copied one z slice at a time, and each copy written at once. The binary
    is written to a sibling temporary file, which replaces it only once every
    slab is written: an error while writing, from ``slabs`` included, leaves
    no new file and an existing field as it was. A manifest path ending in
    ``.bin`` names the binary itself: ValueError.
    """
    manifest_path = Path(manifest_path)
    data_path = manifest_path.with_suffix(".bin")
    if data_path == manifest_path:
        raise ValueError(f"manifest path {str(manifest_path)!r} ends in .bin; name it .json")
    size = grid.node_count * 16
    ends = [size * (c + 1) for c in range(len(_names(kind)))]
    # each component's bytes before written[c] are in the file, and pending[c] follows them
    written = [end - size for end in ends]
    pending = [[] for _ in ends]
    temp_path = data_path.with_name(f".{data_path.name}.{os.getpid()}.tmp")
    try:
        with open(temp_path, "wb") as out:
            for arrays in slabs:
                for c, arr in enumerate(arrays):
                    in_order = arr.transpose(2, 1, 0)
                    whole = in_order.flags.c_contiguous
                    for part in [in_order] if whole else in_order:
                        pending[c].append(
                            np.ascontiguousarray(part, dtype="<c16").reshape(-1).view(np.uint8))
                        stop = written[c] + sum(p.size for p in pending[c])
                        if whole and stop < ends[c]:
                            stop -= stop % RUN_BYTES
                        written[c] = _write_run(out.fileno(), pending[c], written[c], stop)
        # a new name, not a rename over the old binary, which ext4 would flush
        data_path.unlink(missing_ok=True)
        temp_path.rename(data_path)
    except BaseException:
        temp_path.unlink(missing_ok=True)
        raise
    manifest = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "dims": list(grid.dims),
        "spacing": list(grid.spacing),
        "origin": list(grid.origin),
        "time": time,
        "data": data_path.name,
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path, data_path


def save_field(field, manifest_path):
    """Write the manifest JSON and its ``.bin`` next to it; returns both paths.

    ``write_field`` with the field's own arrays as one slab. A manifest path
    ending in ``.bin`` names the binary itself: ValueError.
    """
    if isinstance(field, PotentialField):
        kind, arrays = "potential", [field.ax, field.ay, field.az, field.phi]
    elif isinstance(field, ComplexScalarField):
        kind, arrays = "scalar", [field.values]
    else:
        raise TypeError(f"cannot save {type(field).__name__}")
    return write_field(manifest_path, kind, field.grid, field.time, [arrays])


def load_field(manifest_path, z_slice=None):
    """Read a manifest and its binary; returns the reconstructed field.

    With ``z_slice`` = k the whole file is still checked for NaN and +-inf,
    by one sum over each ``WINDOW_BYTES`` window (see ``fields._all_finite``),
    but only slice k is copied: the result lives on the one-slice grid whose
    origin is node (0, 0, k) of the file's grid, so positions found on it are
    those found on slice k of the full field. The returned arrays are x fastest, like
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
    import mmap  # here, not at import: only loading a field needs it

    names = _names(kind)
    nx, ny, nz = grid.dims
    expected = grid.node_count * len(names) * 16
    try:
        size = data_path.stat().st_size
        if size != expected:
            raise ValueError(f"field data {data_path} has {size} bytes, expected {expected}")
        with open(data_path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise ValueError(f"unreadable field data {data_path}: {exc}") from exc
    data = np.frombuffer(mapped, dtype="<c16").reshape(len(names), nz, ny, nx)
    # one pass per window; a window that is not finite hands the components it
    # overlaps, in order, to the whole-component check, which reports the first
    # non-finite node in (i, j, k) order (a node is finite when its re and im
    # parts both are). Earlier windows were finite, so the first component that
    # fails it is the file's first with a non-finite value.
    values = np.frombuffer(mapped, dtype="<f8")
    window, per_component = WINDOW_BYTES // 8, values.size // len(names)
    for start in range(0, values.size, window):
        stop = min(start + window, values.size)
        if not _all_finite(values[start:stop]):
            for c in range(start // per_component, (stop - 1) // per_component + 1):
                _require_finite(data[c].transpose(2, 1, 0), f"{names[c]} value")
        mapped.madvise(mmap.MADV_DONTNEED, start * 8, (stop - start) * 8)
    if z_slice is not None:
        if not 0 <= z_slice < nz:
            raise ValueError(f"slice {z_slice} out of range for {nz} slice(s)")
        ox, oy, oz = grid.origin
        grid = GridSpec((nx, ny, 1), grid.spacing, (ox, oy, oz + z_slice * grid.spacing[2]))
        data = data[:, z_slice:z_slice + 1]
    components = []
    for component in data:
        components.append(np.array(component).transpose(2, 1, 0))
        mapped.madvise(mmap.MADV_DONTNEED)  # the copied pages, as the check's
    if kind == "scalar":
        return ComplexScalarField(grid, time, components[0])
    return PotentialField(grid, time, *components)
