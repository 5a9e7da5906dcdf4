"""Import hygiene: the CLI and the library's compute paths load numpy only.

scipy stays a dependency for ``sample_ou_paths`` and for the tests, and is
imported on demand; nothing that a CLI command or the Monte Carlo oracle runs
may pull it in, since its import costs more than most commands compute.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import spinsense
import spinsense.ou_noise
import spinsense.protocol

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__)))

_RUN_EVERYTHING = textwrap.dedent(
    """
    import json, os, sys

    import spinsense
    import spinsense.cli
    from spinsense import OUNoise, SpinQuantumNumber, mc_coherence

    out = sys.argv[1]
    commands = [
        ["sweep", "--param", "s", "--min", "0.5", "--max", "64", "--points", "8",
         "--b", "1", "--tau-c", "1e-3"],
        ["optimize-state", "--b", "1", "--tau-c-min", "1e-3", "--tau-c-max", "1e-3",
         "--points", "1"],
        ["qfi-curve", "--s", "1", "--s", "4", "--b", "1", "--tau-c", "0.1", "--points", "32"],
        ["validate", "--suite", "dd"],
        ["validate", "--suite", "oracle"],
        ["validate", "--suite", "estimator"],
    ]
    codes = [
        spinsense.cli.main(argv + ["--out", os.path.join(out, f"{i}.out")])
        for i, argv in enumerate(commands)
    ]
    mc = mc_coherence(SpinQuantumNumber(2), OUNoise(b=1.0, tau_c=1.0), 0.5, 2000, 0.05, 7)
    print(json.dumps({
        "codes": codes,
        "mc_paths": mc.n_paths,
        "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    }))
    """
)


def test_cli_and_compute_paths_import_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EVERYTHING, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 6
    assert report["mc_paths"] == 2000
    assert report["scipy"] == []


def test_benchmark_names_resolve_to_scipy_and_bind():
    import scipy.optimize
    import scipy.signal

    assert spinsense.ou_noise.lfilter is scipy.signal.lfilter
    assert spinsense.protocol.minimize is scipy.optimize.minimize
    # bound as module globals, where a scan of vars(module) finds and replaces them
    assert vars(spinsense.ou_noise)["lfilter"] is scipy.signal.lfilter
    assert vars(spinsense.protocol)["minimize"] is scipy.optimize.minimize


@pytest.mark.parametrize("module", [spinsense.ou_noise, spinsense.protocol])
def test_unknown_module_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")
