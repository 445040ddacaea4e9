"""What importing the package loads: the analytic subcommands run without
numpy, and the package attribute ``evolve`` is the function in any import
order."""

import os
import subprocess
import sys

import pytest

from blockadesim.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Runs the CLI with numpy made unimportable: argv is [subcommand, flags...].
NUMPY_BLOCKED_CLI = (
    "import sys; sys.modules['numpy'] = None; "
    "from blockadesim.cli import main; sys.exit(main())"
)


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["budget", "--temperature", "300K"],
        ["sweep", "--gate", "toffoli"],
        ["synth", "--ratio", "1.3"],
        ["phase", "--omega-bar-mhz", "0.32"],
    ],
    ids=lambda argv: argv[0],
)
def test_analytic_subcommands_run_without_numpy(tmp_path, argv):
    blocked, plain = tmp_path / "blocked.out", tmp_path / "plain.out"
    proc = _python("-c", NUMPY_BLOCKED_CLI, *argv, "--out", str(blocked))
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, "--out", str(plain)]) == 0
    assert blocked.read_bytes() == plain.read_bytes()


def test_invalid_config_fails_without_numpy(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"options": {"v_scale": "2"}}')
    proc = _python("-c", NUMPY_BLOCKED_CLI, "budget", "--config", str(config))
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: options.v_scale")


def test_cli_import_loads_no_numpy():
    proc = _python("-c", "import sys, blockadesim.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("first", ["blockadesim.evolve", "blockadesim"])
def test_package_evolve_is_the_function_in_any_import_order(first):
    # The submodule blockadesim.evolve shares its name with the function the
    # package exports, so the package attribute must be rebound after the
    # submodule is loaded, whichever is imported first.
    script = (
        f"import sys, {first}, blockadesim; "
        "assert blockadesim.evolve is sys.modules['blockadesim.evolve'].evolve"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_once_each():
    # a name left in __all__ after its function is removed breaks
    # ``from blockadesim import *``
    import blockadesim

    assert blockadesim.__all__ == sorted(set(blockadesim.__all__))
    for name in blockadesim.__all__:
        assert getattr(blockadesim, name).__module__.startswith("blockadesim."), name
