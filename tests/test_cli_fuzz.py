"""Arbitrary `report` inputs end in a documented exit code, never a traceback."""

import json
import tempfile
from pathlib import Path

import pytest

from defectfield.cli import EXIT_CLAIM_FAILURE, EXIT_IO, EXIT_OK, EXIT_USAGE, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(deadline=None, database=None, max_examples=80)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
JSON_DOCUMENTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({"defects": JSON_VALUES}).map(json.dumps),
    st.text(max_size=40),
)
CSV_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(st.sampled_from(["check", "value", "passed", "true", "false", "", "x"]),
                      max_size=6).map(",".join), max_size=5).map("\n".join),
)


def _report(name, text, out_name=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = ["report", "--inputs", str(path)]
        if out_name is not None:
            argv += ["--out", str(Path(tmp) / out_name)]
        return main(argv)


@SETTINGS
@hypothesis.given(JSON_DOCUMENTS, st.sampled_from([None, "table.md", "table.csv"]))
def test_arbitrary_json_report_input_never_crashes(text, out_name):
    assert _report("input.json", text, out_name) in (EXIT_OK, EXIT_USAGE, EXIT_IO)


@SETTINGS
@hypothesis.given(CSV_TEXT, st.sampled_from([None, "table.md", "table.csv"]))
def test_arbitrary_csv_report_input_never_crashes(text, out_name):
    # exit 1 is the verdict for a row whose `passed` cell is not "true"
    assert _report("input.csv", text, out_name) in (
        EXIT_OK, EXIT_CLAIM_FAILURE, EXIT_USAGE, EXIT_IO)


MAGNITUDES = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)
DISCLINATIONS = st.fixed_dictionaries(
    {"model": st.just("disclination"), "k": MAGNITUDES},
    optional={"c": MAGNITUDES, "omega": MAGNITUDES, "a": MAGNITUDES,
              "az": st.tuples(MAGNITUDES, MAGNITUDES).map(list)},
)


@SETTINGS
@hypothesis.given(DISCLINATIONS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_disclination_verify_never_crashes(descriptor):
    argv = ["verify", "--model", json.dumps(descriptor), "--dims", "5", "--refinements", "1"]
    assert main(argv) in (EXIT_OK, EXIT_CLAIM_FAILURE, EXIT_USAGE)
