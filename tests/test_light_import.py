"""Importing the package and running the CLI pipelines loads no scipy module; the
sparse incidence matrices, the one thing scipy is used for, still build when read."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DISCLINATION = json.dumps({"model": "disclination", "k": 1.0, "c": 1.0})
DISLOCATION = json.dumps({"model": "dislocation", "n": 2})

# every command of the generate -> detect -> report and verify paths and the forms
# demos, each with its highest accepted exit code: verify at 9 nodes is too coarse
# for its wave claim, so it may exit 1
COMMANDS = [
    (["generate", "--model", DISCLINATION, "--dims", "17,17,2", "--extent", "4,4,2",
      "--out", "disc.json"], 0),
    (["generate", "--model", DISLOCATION, "--dims", "16,16,2", "--out", "dislo.json"], 0),
    (["detect", "--field", "disc.json", "--slice", "1", "--out", "disc-1.json"], 0),
    (["detect", "--field", "dislo.json", "--slice", "0", "--out", "dislo-0.json"], 0),
    (["report", "--inputs", "disc-1.json", "dislo-0.json", "--out", "table.md"], 0),
    (["verify", "--model", DISCLINATION, "--dims", "9", "--refinements", "1",
      "--out", "verify.csv"], 1),
    (["forms", "--demo", "stokes", "--nodes", "8", "--pairs", "20", "--out", "stokes.json"], 0),
    (["forms", "--demo", "period", "--out", "period.json"], 0),
    (["forms", "--demo", "ws", "--out", "ws.json"], 0),
    (["ledger", "--nu", "2.0", "--out", "ledger.json"], 0),
]

SCRIPT = """
import json, sys
import defectfield, defectfield.cli
from defectfield import cli, forms

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
exits = []
for argv, _ in json.loads(sys.argv[1]):
    exits.append(cli.main(argv))
    loaded[argv[0] + " " + argv[2]] = scipy_modules()
cx = forms.CubicalComplex(3, 2)
d0, d1 = cx.d0, cx.d1
print(json.dumps({
    "exits": exits, "loaded": loaded, "after_d0": "scipy.sparse" in sys.modules,
    "cached": cx.d0 is d0 and cx.d1 is d1,
    "matrices": [{"format": m.format, "dtype": str(m.dtype), "shape": list(m.shape),
                  "sorted": bool(m.has_sorted_indices), "indptr": m.indptr.tolist(),
                  "indices": m.indices.tolist(), "data": m.data.tolist()} for m in (d0, d1)],
}))
"""


def _csr(dense):
    """CSR arrays of a small dense matrix, row by row in ascending column order."""
    indptr, indices, data = [0], [], []
    for row in dense:
        cols = [c for c, v in enumerate(row) if v]
        indices += cols
        data += [row[c] for c in cols]
        indptr.append(len(indices))
    return indptr, indices, data


def test_cli_paths_load_no_scipy_and_incidence_builds_on_demand(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["exits"]) == len(COMMANDS)
    assert all(code <= highest for code, (_, highest) in zip(result["exits"], COMMANDS))
    assert all(mods == [] for mods in result["loaded"].values()), result["loaded"]
    assert result["after_d0"] and result["cached"]
    # 3x2 nodes: vertex j*3+i; x-edges j*2+i, then y-edges 4+j*3+i; faces j*2+i
    d0 = [[-1, 1, 0, 0, 0, 0], [0, -1, 1, 0, 0, 0], [0, 0, 0, -1, 1, 0], [0, 0, 0, 0, -1, 1],
          [-1, 0, 0, 1, 0, 0], [0, -1, 0, 0, 1, 0], [0, 0, -1, 0, 0, 1]]
    d1 = [[1, 0, -1, 0, -1, 1, 0], [0, 1, 0, -1, 0, -1, 1]]
    for got, dense in zip(result["matrices"], (d0, d1)):
        assert got["format"] == "csr" and got["dtype"] == "int64" and got["sorted"]
        assert got["shape"] == [len(dense), len(dense[0])]
        assert (got["indptr"], got["indices"], got["data"]) == _csr(dense)
