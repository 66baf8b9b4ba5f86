"""The analytic commands run without numpy, the simulator's names load lazily, and
every name a module exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import d2dcap

SRC = Path(__file__).resolve().parents[1] / "src"
# every module of the package but `__main__`, which runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(d2dcap.__path__) if m.name != "__main__"
)


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )


def test_import_cli_leaves_numpy_and_mcsim_out():
    done = _fresh(
        "import sys, d2dcap.cli; print('numpy' in sys.modules, 'd2dcap.mcsim' in sys.modules)"
    )
    assert done.stdout.split() == ["False", "False"]


def test_import_cli_builds_no_parser_and_parses_no_preset():
    # both are cached per process, filled by the first main call
    done = _fresh(
        "import os\n"
        "from d2dcap import cli, scenario\n"
        "caches = (cli._build_parser, scenario._preset)\n"
        "print(*(c.cache_info().currsize for c in caches))\n"
        "cli.main(['guard', '--out', os.devnull])\n"
        "print(*(c.cache_info().currsize for c in caches))\n"
    )
    assert done.stdout.split() == ["0", "0", "1", "1"]


@pytest.mark.parametrize("command", ["guard", "bounds", "sweep"])
def test_analytic_command_leaves_numpy_out(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    code = (
        "import runpy, sys\n"
        "sys.argv = ['d2dcap', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('d2dcap', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'numpy' in sys.modules, 'd2dcap.mcsim' in sys.modules)\n"
    )
    done = _fresh(code, command, "--out", str(out))
    assert done.stdout.split() == ["0", "False", "False"]
    assert out.stat().st_size > 0


def test_simulator_names_resolve_lazily():
    code = (
        "import sys\n"
        "import d2dcap\n"
        "assert 'd2dcap.mcsim' not in sys.modules\n"
        "from d2dcap import (TrialConfig, TrialResult, aggregate, evaluate_sir,\n"
        "                    run_ppp_trial, run_saturation_trial, run_trial)\n"
        "import d2dcap.mcsim, d2dcap.scenario\n"
        "assert run_trial is d2dcap.mcsim.run_trial and TrialResult is d2dcap.mcsim.TrialResult\n"
        "assert d2dcap.mcsim.TrialConfig is d2dcap.scenario.TrialConfig is TrialConfig\n"
        "assert d2dcap.mcsim.PPP_MAX_PAIRS is d2dcap.scenario.PPP_MAX_PAIRS\n"
        "try:\n"
        "    d2dcap.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "print('ok')\n"
    )
    assert _fresh(code).stdout.split() == ["ok"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"d2dcap.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"d2dcap.{name}.__all__ lists names it does not define"
