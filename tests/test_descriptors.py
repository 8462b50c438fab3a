"""Property tests for model descriptors (encode/decode and input validation)."""

import pytest

from defectfield import model_from_descriptor, model_to_descriptor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(deadline=None, database=None)

REAL = st.floats(min_value=-1e6, max_value=1e6)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6)
COMPLEX = st.lists(REAL, min_size=2, max_size=2)


def _kind(name, **fields):
    return st.fixed_dictionaries({"model": st.just(name), **fields})


SCALAR_DESCRIPTORS = st.one_of(
    _kind("dislocation", n=st.integers(-5, 5).filter(bool), k=NONNEGATIVE,
          omega=NONNEGATIVE, a=REAL),
    _kind("plane_wave", kvec=st.lists(REAL, min_size=3, max_size=3), omega=REAL,
          amplitude=COMPLEX),
    _kind("product_sine", qx=REAL, qy=REAL, kz=REAL, omega=REAL, a=REAL),
    _kind("constant", value=COMPLEX),
)

DESCRIPTORS = st.one_of(
    SCALAR_DESCRIPTORS,
    _kind("disclination", k=POSITIVE, omega=NONNEGATIVE, c=POSITIVE, a=REAL, az=COMPLEX),
    _kind("pure_gauge", c=POSITIVE, psi=SCALAR_DESCRIPTORS),
)

# every key each kind reads
KEYS = {
    "disclination": ("k", "omega", "c", "a", "az"),
    "dislocation": ("n", "k", "omega", "a"),
    "plane_wave": ("kvec", "omega", "amplitude"),
    "product_sine": ("qx", "qy", "kz", "omega", "a"),
    "constant": ("value",),
    "pure_gauge": ("c", "psi"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8,
) | SCALAR_DESCRIPTORS


# a kind with any subset of its keys, each holding an arbitrary JSON value
ARBITRARY = st.sampled_from(sorted(KEYS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"model": st.just(kind)}, optional={key: JSON_VALUES for key in KEYS[kind]}))


@SETTINGS
@hypothesis.given(DESCRIPTORS)
def test_valid_descriptors_round_trip(descriptor):
    model = model_from_descriptor(descriptor)
    assert model_to_descriptor(model) == descriptor
    assert model_from_descriptor(model_to_descriptor(model)) == model


@SETTINGS
@hypothesis.given(ARBITRARY)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_arbitrary_values_build_or_raise_value_error(descriptor):
    try:
        model_from_descriptor(descriptor)
    except ValueError:
        pass
