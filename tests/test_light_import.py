"""Every CLI command and every demo runs with scipy blocked: numpy is the package's
only dependency. Importing the package and its CLI loads no heavy standard or test
module either."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(str(p) for p in (ROOT / "demos").glob("*.py"))

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
import contextlib, io, json, runpy, sys
sys.modules["scipy"] = None   # any import of scipy or a submodule now raises ImportError
try:
    import scipy.sparse
    blocked = False
except ImportError:
    blocked = True
from defectfield import cli

commands, demos = json.loads(sys.argv[1])
exits = [cli.main(argv) for argv, _ in commands]
for demo in demos:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(demo, run_name="__main__")
print(json.dumps({"blocked": blocked, "exits": exits, "demos": len(demos)}))
"""


def test_cli_commands_and_demos_run_with_scipy_blocked(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps([COMMANDS, DEMOS])],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["blocked"]
    assert len(result["exits"]) == len(COMMANDS)
    assert all(code <= highest for code, (_, highest) in zip(result["exits"], COMMANDS))
    assert result["demos"] == len(DEMOS) == 5


def test_import_loads_no_heavy_module():
    # the benchmark's setup_s times exactly this import in a fresh process
    heavy = ("scipy", "concurrent", "logging", "multiprocessing", "hypothesis")
    script = ("import json, sys, defectfield, defectfield.cli; "
              "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)).isdisjoint(heavy)
