"""Property tests for model descriptors (decoding and input validation)."""

import math

import pytest

from defectfield import model_from_descriptor
from defectfield.fields import harmonic_factor

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


def _assert_carries(model, descriptor):
    """Each descriptor value lands on the decoded model."""
    # the disclination keys are WaveParams fields; "value" is ConstantScalar.value0
    target = model.params if descriptor["model"] == "disclination" else model
    for key, value in descriptor.items():
        if key == "model":
            continue
        actual = getattr(target, "value0" if key == "value" else key)
        if key == "psi":
            _assert_carries(actual, value)
        elif isinstance(value, list) and len(value) == 2:  # [re, im]
            assert actual == complex(*value), key
        elif isinstance(value, list):
            assert actual == tuple(value), key
        else:
            assert actual == value, key


@SETTINGS
@hypothesis.given(DESCRIPTORS)
def test_valid_descriptors_round_trip(descriptor):
    _assert_carries(model_from_descriptor(descriptor), descriptor)


@SETTINGS
@hypothesis.given(DESCRIPTORS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_model_answers_components_and_their_time_derivative(descriptor):
    model = model_from_descriptor(descriptor)
    point = (0.3, -0.7, 0.2, 0.4)
    if descriptor["model"] == "disclination" and descriptor["omega"] == 0:
        with pytest.raises(ValueError, match="omega = 0"):
            model.components(*point)
        return
    comps = model.components(*point)
    # a potential's (Ax, Ay, Az, Phi), a scalar model's (psi,)
    assert len(comps) == (4 if descriptor["model"] in ("disclination", "pure_gauge") else 1)
    # every model declares omega and c: its time derivative is one factor
    assert harmonic_factor(model, 1) == -1j * model.omega
    assert math.isfinite(model.c) and model.c > 0


@SETTINGS
@hypothesis.given(ARBITRARY)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_arbitrary_values_build_or_raise_value_error(descriptor):
    try:
        model_from_descriptor(descriptor)
    except ValueError:
        pass
