"""Cold start: the periodic path and the fits import numpy alone, the odd
path adds scipy's compiled DST-I kernel without ``scipy.fft`` (neither
loads ``numpy.ma``), and multiprocessing loads only when a spectrum starts a
row helper.  Each test runs in a fresh interpreter, so an import put back at
the top of a kslyap module shows up in its ``sys.modules``."""

import json
import os
import subprocess
import sys

import numpy as np

import kslyap
from kslyap import make_model

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
    # numpy.ma takes about 10 ms to import; scipy.fft would load it with
    # every other numpy submodule, which the odd model's kernel does not
    code = f"""
import contextlib, io, json, sys
from kslyap import cli
loaded = {{}}
for bc in ("periodic", "odd"):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["lyap", "--bc", bc, "--L", "22"] + {TINY!r})
    loaded[bc] = [rc, "numpy.ma" in sys.modules]
print(json.dumps(loaded))
"""
    assert fresh(code, tmp_path) == {"periodic": [0, False], "odd": [0, False]}


def test_odd_lyap_loads_no_scipy_fft(tmp_path):
    code = f"""
import contextlib, io, json, sys
from kslyap import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["lyap", "--bc", "odd", "--L", "22"] + {TINY!r})
print(json.dumps({{"rc": rc, "loaded": {SCIPY_LOADED}}}))
"""
    got = fresh(code, tmp_path)
    assert got["rc"] == 0
    assert "scipy.fft" not in got["loaded"]
    assert not [m for m in got["loaded"] if m.startswith("scipy._lib")]


# a seeded (3, 117) block at L=41, and the bits of scipy.fft.dst on it
ODD_BLOCK = """
import json, sys
import numpy as np
from kslyap import ks, make_model
x = np.random.default_rng(41).standard_normal((3, 117))
"""
SCIPY_DST = 'scipy.fft.dst(x, type=1, norm="ortho").tobytes()'


def test_the_dst_helper_works_before_any_model(tmp_path):
    code = ODD_BLOCK + f"""
first = ks._orthonormal_dst1(x).tobytes()
loaded = {SCIPY_LOADED}
import scipy.fft
print(json.dumps({{"loaded": loaded, "dst_equal": first == {SCIPY_DST}}}))
"""
    assert fresh(code, tmp_path) == {"loaded": [], "dst_equal": True}


def test_either_import_order_gives_the_same_bits(tmp_path):
    # the odd model loads the kernel before scipy.fft is imported, or after:
    # one module either way, with the bits of scipy.fft.dst, and the rhs has
    # the bits it has in this process
    rhs = 'rhs = make_model("odd", 41.0).rhs(0.0, x).tobytes().hex()\n'
    model_first = ODD_BLOCK + rhs + "import scipy.fft\n"
    scipy_first = "import scipy.fft" + ODD_BLOCK + rhs
    report = f"""
from scipy.fft._pocketfft import pypocketfft
print(json.dumps({{"rhs": rhs, "dst_equal": ks._orthonormal_dst1(x).tobytes() == {SCIPY_DST},
                  "one_kernel": ks._pocketfft_dst is pypocketfft.dst}}))
"""
    want = make_model("odd", 41.0).rhs(
        0.0, np.random.default_rng(41).standard_normal((3, 117))).tobytes().hex()
    for code in (model_first, scipy_first):
        assert fresh(code + report, tmp_path) == {
            "rhs": want, "dst_equal": True, "one_kernel": True}


def test_grid_helper_is_scipy_next_fast_len(tmp_path):
    code = f"""
import json, sys
from kslyap.ks import _next_fast_len
targets = list(range(1, 10001)) + [10**9 + 1, 10**12 + 1]
ours = [_next_fast_len(t) for t in targets]
loaded = {SCIPY_LOADED}
from scipy.fftpack import next_fast_len  # the 5-smooth one
theirs = [next_fast_len(t) for t in targets]
print(json.dumps({{"loaded": loaded, "equal": ours == theirs, "billion": ours[10000]}}))
"""
    got = fresh(code, tmp_path)
    assert got["loaded"] == []
    assert got["equal"]
    assert got["billion"] == 1006632960


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
