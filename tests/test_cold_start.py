"""Cold start: the periodic path and the fits import numpy alone (without
``numpy.ma``), scipy loads when the first odd model is built, and
multiprocessing only when a spectrum starts a row helper.  Each test runs in
a fresh interpreter, so an import put back at the top of a kslyap module
shows up in its ``sys.modules``."""

import json
import os
import subprocess
import sys

import kslyap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kslyap.__file__)))

# one step from seed 0; at L=22 eight exponents already saturate D_KY, so a
# dky over two such rows has a fit
TINY = ["--m", "8", "--T", "0.05", "--N", "1", "--tau", "0", "--seed", "0"]


def fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that imports kslyap from SRC; it
    prints one JSON value, which is returned."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_periodic_lyap_imports_no_scipy_and_dky_no_scipy_fft(tmp_path):
    code = f"""
import contextlib, io, json, sys
from kslyap import cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(["lyap", "--L", L, "--out", f"p{{L}}.csv"] + {TINY!r})
           for L in ("22", "23")]
loaded = {{"lyap": {SCIPY_LOADED}}}
with contextlib.redirect_stdout(io.StringIO()):
    rcs.append(cli.main(["dky", "--results", "p22.csv,p23.csv", "--Lmin-fit", "0",
                         "--out", "dky.csv"]))
loaded["dky"] = {SCIPY_LOADED}
print(json.dumps({{"rcs": rcs, "loaded": loaded}}))
"""
    got = fresh(code, tmp_path)
    assert got["rcs"] == [0, 0, 0]
    assert got["loaded"]["lyap"] == []
    # the dky fit solves its least-squares system with numpy.linalg
    assert got["loaded"]["dky"] == []


def test_a_tiny_lyap_loads_no_multiprocessing(tmp_path):
    # a block too small to split with a row helper imports nothing for one
    code = f"""
import contextlib, io, json, sys
from kslyap import cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(["lyap", "--bc", bc, "--L", "22"] + {TINY!r})
           for bc in ("periodic", "odd")]
print(json.dumps({{"rcs": rcs, "loaded": "multiprocessing" in sys.modules}}))
"""
    assert fresh(code, tmp_path) == {"rcs": [0, 0], "loaded": False}


def test_a_tiny_lyap_loads_no_numpy_ma(tmp_path):
    # numpy.ma takes about 10 ms to import.  An odd model imports scipy.fft,
    # which loads every numpy submodule, numpy.ma among them; so for odd the
    # check is that numpy.ma enters sys.modules (insertion-ordered) after
    # scipy, not before it, where the model's own code would put it.
    code = f"""
import contextlib, io, json, sys
from kslyap import cli
loaded = {{}}
for bc in ("periodic", "odd"):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["lyap", "--bc", bc, "--L", "22"] + {TINY!r})
    names = list(sys.modules)
    loaded[bc] = [rc, names.index("numpy.ma") - names.index("scipy")
                  if "numpy.ma" in names else None]
print(json.dumps(loaded))
"""
    got = fresh(code, tmp_path)
    assert got["periodic"] == [0, None]
    assert got["odd"][0] == 0 and got["odd"][1] > 0


def test_odd_lyap_loads_scipy_fft(tmp_path):
    code = f"""
import contextlib, io, json, sys
from kslyap import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["lyap", "--bc", "odd", "--L", "22"] + {TINY!r})
print(json.dumps({{"rc": rc, "loaded": {SCIPY_LOADED}}}))
"""
    got = fresh(code, tmp_path)
    assert got["rc"] == 0
    assert "scipy.fft" in got["loaded"]


def test_grid_helper_is_scipy_next_fast_len(tmp_path):
    code = f"""
import json, sys
from kslyap.ks import _next_fast_len
ours = [_next_fast_len(t) for t in range(1, 10001)]
loaded = {SCIPY_LOADED}
from scipy.fftpack import next_fast_len  # the 5-smooth one
theirs = [next_fast_len(t) for t in range(1, 10001)]
print(json.dumps({{"loaded": loaded, "equal": ours == theirs}}))
"""
    got = fresh(code, tmp_path)
    assert got["loaded"] == []
    assert got["equal"]


def test_periodic_grid_size_at_L22_and_L100(tmp_path):
    code = f"""
import json, sys
from kslyap import make_model
sizes = [make_model("periodic", L).grid_size for L in (22.0, 100.0)]
print(json.dumps({{"sizes": sizes, "loaded": {SCIPY_LOADED}}}))
"""
    got = fresh(code, tmp_path)
    assert got["sizes"] == [100, 450]
    assert got["loaded"] == []
