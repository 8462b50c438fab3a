"""Field files: slice reads, the on-disk encoding, fuzzed manifests and the
finiteness check."""

import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from defectfield import (
    ComplexScalarField,
    DisclinationModel,
    DislocationModel,
    GridSpec,
    PotentialField,
    SamplingError,
    WaveParams,
    find_disclinations,
    find_dislocations,
    load_field,
    sample_potential,
    sample_scalar,
    save_field,
)
from defectfield.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from defectfield.fields import _all_finite, _require_finite

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(deadline=None, database=None, max_examples=60)

GRIDS = ((9, 9, 5), (8, 8, 4))


def _sampled(kind, dims):
    grid = GridSpec.centered((4.0, 4.0, 2.0), dims)
    if kind == "potential":
        return sample_potential(DisclinationModel(WaveParams.with_dispersion(k=1.3)), grid, 0.2)
    return sample_scalar(DislocationModel(n=-2, k=1.1, omega=1.1), grid, 0.2)


def _arrays(field):
    if isinstance(field, PotentialField):
        return [field.ax, field.ay, field.az, field.phi]
    return [field.values]


def _find(field, k):
    if isinstance(field, PotentialField):
        return find_disclinations(field, k)
    return find_dislocations(field, k)


@pytest.mark.parametrize("dims", GRIDS)
@pytest.mark.parametrize("kind", ["scalar", "potential"])
def test_slice_read_equals_full_read(tmp_path, kind, dims):
    manifest, _ = save_field(_sampled(kind, dims), tmp_path / "f.json")
    full = load_field(manifest)
    for k in range(dims[2]):
        part = load_field(manifest, z_slice=k)
        assert type(part) is type(full) and part.time == full.time
        assert part.grid.dims == (dims[0], dims[1], 1)
        assert part.grid.spacing == full.grid.spacing
        assert part.grid.node_position(0, 0, 0) == full.grid.node_position(0, 0, k)
        for a, b in zip(_arrays(part), _arrays(full)):
            assert a[:, :, 0].tobytes() == b[:, :, k].tobytes()
        records = _find(part, 0)
        assert records and records == _find(full, k)


@pytest.mark.parametrize("kind", ["scalar", "potential"])
def test_save_field_bytes_match_reference_encoding(tmp_path, kind):
    field = _sampled(kind, (9, 8, 5))
    _, data = save_field(field, tmp_path / "f.json")
    reference = b"".join(np.ascontiguousarray(a.transpose(2, 1, 0)).astype("<c16").tobytes()
                         for a in _arrays(field))
    assert data.read_bytes() == reference


def test_save_field_of_a_sampled_field_copies_no_component(tmp_path):
    # sampled arrays are x fastest, the file's order, so each is written as it is
    field = _sampled("potential", (33, 33, 8))
    tracemalloc.start()
    try:
        save_field(field, tmp_path / "f.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field.ax.nbytes


def test_save_field_of_a_c_order_field_copies_one_slice_at_a_time(tmp_path):
    # z fastest, as products of np.meshgrid(..., indexing="ij") are
    sampled = _sampled("scalar", (33, 33, 8))
    c_order = np.ascontiguousarray(sampled.values)
    assert c_order.flags.c_contiguous and not c_order.transpose(2, 1, 0).flags.c_contiguous
    field = ComplexScalarField(sampled.grid, sampled.time, c_order)
    tracemalloc.start()
    try:
        _, data = save_field(field, tmp_path / "c.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < c_order.nbytes
    _, reference = save_field(sampled, tmp_path / "x.json")
    assert data.read_bytes() == reference.read_bytes()


def test_data_path_may_leave_the_manifest_directory(tmp_path):
    (tmp_path / "meta").mkdir()
    (tmp_path / "blobs").mkdir()
    field = _sampled("scalar", (8, 8, 4))
    manifest, data = save_field(field, tmp_path / "meta" / "f.json")
    content = json.loads(manifest.read_text())
    assert content["data"] == "f.bin" and data == tmp_path / "meta" / "f.bin"
    data.rename(tmp_path / "blobs" / "f.bin")
    manifest.write_text(json.dumps({**content, "data": "../blobs/f.bin"}))
    assert np.array_equal(load_field(manifest).values, field.values)


def test_save_field_refuses_a_manifest_path_ending_in_bin(tmp_path):
    # the binary is the manifest path with suffix .bin: here the manifest itself
    with pytest.raises(ValueError, match=re.escape(repr(str(tmp_path / "f.bin")))):
        save_field(_sampled("scalar", (4, 4, 2)), tmp_path / "f.bin")
    assert list(tmp_path.iterdir()) == []


def test_load_field_checks_the_whole_file(tmp_path):
    manifest, data = save_field(_sampled("potential", (8, 8, 4)), tmp_path / "f.json")
    raw = bytearray(data.read_bytes())
    # az (component 2) at node (i, j, k) = (5, 1, 3); file order is x fastest
    offset = ((2 * 4 + 3) * 8 * 8 + 1 * 8 + 5) * 16
    raw[offset:offset + 8] = np.array([np.inf]).tobytes()
    data.write_bytes(bytes(raw))
    for z_slice in (None, 0, 3):
        with pytest.raises(SamplingError, match=r"non-finite az value at node \(5, 1, 3\)"):
            load_field(manifest, z_slice=z_slice)
    data.write_bytes(bytes(raw[:-16]))
    with pytest.raises(ValueError, match="has 16368 bytes, expected 16384"):
        load_field(manifest, z_slice=1)
    save_field(_sampled("potential", (8, 8, 4)), manifest)
    for z_slice in (-1, 4):
        with pytest.raises(ValueError, match=f"slice {z_slice} out of range for 4 slice"):
            load_field(manifest, z_slice=z_slice)


# --- fuzzed manifests through `detect` -------------------------------------

DIMS = (4, 3, 3)
KEYS = ("version", "kind", "dims", "spacing", "origin", "time", "data")

# integers past the float range included: they overflow float() and GridSpec
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 1024, 2 ** 1100)
    | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8,
)


def _detect(tmp, manifest_changes=None, data=None, z_slice=0):
    """Write a valid scalar field, apply the changes, run `detect`; returns its exit code."""
    values = np.full(DIMS, 1.0 + 0.5j)
    manifest, data_path = save_field(
        ComplexScalarField(GridSpec(DIMS, (1.0, 1.0, 1.0)), 0.0, values), Path(tmp) / "f.json")
    if manifest_changes is not None:
        content = json.loads(manifest.read_text())
        content.update(manifest_changes)
        manifest.write_text(json.dumps(content))
    if data is not None:
        data_path.write_bytes(data)
    return main(["detect", "--field", str(manifest), "--slice", str(z_slice)])


@SETTINGS
@hypothesis.given(st.sampled_from(KEYS), JSON_VALUES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_arbitrary_manifest_values_never_crash_detect(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        code = _detect(tmp, {key: value})
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO)
    if key == "version" and value != 1:
        assert code == EXIT_USAGE
    if key == "kind" and value != "scalar":
        assert code == EXIT_USAGE


NON_INTEGRAL = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda v: not math.isfinite(v) or v != int(v))
BAD_DIMS = st.one_of(
    st.lists(st.integers(min_value=10 ** 4, max_value=10 ** 30), min_size=3, max_size=3),
    st.tuples(st.just(4), st.just(3), NON_INTEGRAL).map(list),
    st.lists(st.integers(max_value=0), min_size=3, max_size=3),
    st.lists(st.integers(min_value=1, max_value=5), max_size=5).filter(lambda d: len(d) != 3),
)


@SETTINGS
@hypothesis.given(st.one_of(
    st.fixed_dictionaries({"version": st.integers().filter(lambda v: v != 1)}),
    st.fixed_dictionaries({"kind": st.text(max_size=10).filter(lambda v: v != "scalar")}),
    st.fixed_dictionaries({"dims": BAD_DIMS}),
    st.fixed_dictionaries({"data": st.sampled_from(["missing.bin", "../missing.bin", "."])}),
))
def test_invalid_manifests_exit_usage(changes):
    with tempfile.TemporaryDirectory() as tmp:
        assert _detect(tmp, changes) == EXIT_USAGE


@SETTINGS
@hypothesis.given(st.integers(min_value=-math.prod(DIMS) * 16, max_value=64).filter(bool))
def test_truncated_or_overlong_data_exits_usage(delta):
    size = math.prod(DIMS) * 16 + delta
    with tempfile.TemporaryDirectory() as tmp:
        assert _detect(tmp, data=bytes(size)) == EXIT_USAGE


@SETTINGS
@hypothesis.given(
    st.tuples(*(st.integers(0, n - 1) for n in DIMS)),
    st.integers(0, 1),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, DIMS[2] - 1),
)
def test_non_finite_value_outside_the_slice_exits_usage(node, part, bad, z_slice):
    i, j, k = node
    hypothesis.assume(k != z_slice)
    values = np.full(DIMS, 1.0 + 0.5j).transpose(2, 1, 0).copy()
    values.view(np.float64).reshape(DIMS[2], DIMS[1], DIMS[0], 2)[k, j, i, part] = bad
    with tempfile.TemporaryDirectory() as tmp:
        assert _detect(tmp, data=values.astype("<c16").tobytes(), z_slice=z_slice) == EXIT_USAGE


# --- the finiteness check ----------------------------------------------------

NON_FINITE = (math.nan, math.inf, -math.inf)
# finite extremes a max/min reduction must pass: the largest magnitudes,
# subnormals and -0.0
FINITE_EDGES = (np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324,
                np.finfo(float).tiny / 3, -0.0)
# small n-d shapes, empty ones included, and 1-d lengths that straddle
# several multiples of the SIMD width and of its unrolled blocks
SHAPES = st.one_of(st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
                   st.integers(0, 130).map(lambda n: (n,)))
LAYOUTS = ("C", "F", "strided")


def _layout(values, layout):
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        # every other element along the last axis: neither C- nor F-contiguous
        wide = np.zeros(values.shape[:-1] + (2 * values.shape[-1],), values.dtype)
        wide[..., ::2] = values
        return wide[..., ::2]
    return np.ascontiguousarray(values)


@st.composite
def finiteness_cases(draw):
    dtype = draw(st.sampled_from((np.float64, np.complex128)))
    shape = draw(SHAPES)
    size = math.prod(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = rng.normal(size=(size, 2)) * draw(st.sampled_from((1e-300, 1.0, 1e300)))
    if size:
        index = st.one_of(st.just(0), st.just(size - 1), st.integers(0, size - 1))
        planted = st.tuples(index, st.integers(0, 1 if dtype is np.complex128 else 0),
                            st.sampled_from(FINITE_EDGES + NON_FINITE))
        for i, part, value in draw(st.lists(planted, max_size=3)):
            parts[i, part] = value
    # a view, not re + 1j * im: 1j * inf has a NaN real part
    values = parts.view(np.complex128)[:, 0] if dtype is np.complex128 else parts[:, 0]
    return _layout(values.reshape(shape), draw(st.sampled_from(LAYOUTS)))


@SETTINGS
@hypothesis.given(finiteness_cases())
def test_all_finite_matches_isfinite(values):
    assert _all_finite(values) == bool(np.isfinite(values).all())


def test_all_finite_passes_finite_extremes_and_catches_each_non_finite_value():
    for dtype in (np.float64, np.complex128):
        edges = np.array(FINITE_EDGES * 5, dtype=dtype)
        assert _all_finite(edges) and _all_finite(edges.reshape(5, 6, order="F"))
        assert _all_finite(np.empty((0, 3), dtype=dtype))
        for bad in NON_FINITE:
            for i in (0, 17, edges.size - 1):
                for part in ("real", "imag")[:1 + (dtype is np.complex128)]:
                    values = edges.copy()
                    getattr(values, part)[i] = bad
                    assert not _all_finite(values), (dtype, bad, i, part)


@SETTINGS
@hypothesis.given(st.tuples(*(st.integers(1, 5) for _ in range(3))),
                  st.sampled_from(LAYOUTS), st.data())
def test_sampling_error_names_the_first_non_finite_node(dims, layout, data):
    nodes = data.draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in dims)),
                               min_size=1, max_size=3))
    values = np.full(dims, 1.0 + 0.5j)
    for node in nodes:
        part = data.draw(st.sampled_from(("real", "imag")))
        getattr(values, part)[node] = data.draw(st.sampled_from(NON_FINITE))
    # (i, j, k) order, whatever the memory layout
    expected = re.escape(f"non-finite scalar value at node {min(nodes)}")
    with pytest.raises(SamplingError, match=expected):
        _require_finite(_layout(values, layout), "scalar value")
    with pytest.raises(SamplingError, match=expected):
        ComplexScalarField(GridSpec(dims, (1.0, 1.0, 1.0)), 0.0, _layout(values, layout))
