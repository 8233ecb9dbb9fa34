"""What aisepred loads, from `import aisepred` through nine AISE filters, both baselines, a
truth-derivative and an estimated run and both CLI commands: never scipy.signal, scipy.stats
or scipy.special."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import aisepred
from aisepred.baselines import BdbDifferentiator

# Run in a fresh interpreter: argv[1] is the directory holding the package, argv[2] a
# scratch directory. Prints one JSON object.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import aisepred
from aisepred import cli

out = sys.argv[2]
t = np.arange(200) * 0.01
ys = 5.0 * np.cos(t) + 0.01 * np.sin(37.0 * t)
filters = [aisepred.AiseFilter(aisepred.benchmark_config(order)) for order in (1, 2, 3) for _ in range(3)]
for f in filters:
    f.step(ys[0])
est = aisepred.DerivativeEstimate(v=np.array([0.0, 5.0, 1.0]), a=np.array([-5.0, 0.0, 0.0]),
                                  j=np.array([0.0, -5.0, 0.0]))
for method in ("AISE/FS", "AISE/va"):
    aisepred.predict(method, np.array([5.0, 0.0, 0.0]), est, 20, 0.01)
aisepred.run_experiment(aisepred.ExperimentConfig(n_steps=300, k0=100, horizon=50,
                                                  truth_derivatives=True), out_dir=out + "/run")
with open(out + "/in.csv", "w") as fh:
    fh.write("t,x\\n" + "".join(f"{a!r},{b!r}\\n" for a, b in zip(t.tolist(), ys.tolist())))
status = [cli.main(["differentiate", out + "/in.csv", "--out", out + "/d.csv"])]
run = aisepred.BdbDifferentiator(0.01).run(ys)
aisepred.run_experiment(aisepred.ExperimentConfig(n_steps=300, k0=100, horizon=50))
with open(out + "/track.csv", "w") as fh:
    fh.write("t,x,y,z\\n" + "".join(f"{a!r},{b!r},{-b!r},{a!r}\\n"
                                    for a, b in zip(t.tolist(), ys.tolist())))
status.append(cli.main(["predict", out + "/track.csv", "--method", "bdb-va", "--out", out + "/p.csv"]))
print(json.dumps({"status": status,
                  "loaded": sorted(name for name in ("scipy.signal", "scipy.stats", "scipy.special")
                                   if name in sys.modules),
                  "run": [column.tolist() for column in run]}))
"""


def test_nothing_loads_scipy_signal(tmp_path):
    # The BDB baseline designs and runs its Butterworth cascade in numpy, so no run, baseline or
    # command pays scipy.signal's import, which brings scipy.stats and most of scipy with it;
    # and AISE computes its F-test quantile in Python, so no filter loads scipy.special.
    src = str(Path(aisepred.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", CHILD, src, str(tmp_path)],
                           capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["status"] == [0, 0]
    assert result["loaded"] == []
    t = np.arange(200) * 0.01
    ys = 5.0 * np.cos(t) + 0.01 * np.sin(37.0 * t)
    assert result["run"] == [column.tolist() for column in BdbDifferentiator(0.01).run(ys)]
