"""Property test of the CLI: every config either runs or gives one error line.

Configs are drawn from the kinds in ``cli.FIELDS``: valid values mixed with
wrong types, null, non-finite numbers, values near the ends of the float
range and an int past it.  Each subcommand runs in process.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockadesim.cli import FIELDS, main

SUBCOMMANDS = ("synth", "simulate", "budget", "phase", "sweep")

EXTREMES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0, 0.0, 2**1100]
)
WRONG_TYPES = st.sampled_from(["1.0", "", "4.2K ", [], ["4.2K"], {}, {"a": 1}, True, False])
BAD = st.one_of(st.none(), WRONG_TYPES, EXTREMES)

# Sweep bounds and steps that keep every grid at 23 points or fewer.
SWEEP_VALUES = {
    "sweep.start_MHz": st.sampled_from([0.02, 0.1, 0.5, 1.0, 2.3, -1.0]),
    "sweep.stop_MHz": st.sampled_from([0.02, 0.5, 1.0, 2.3, 2.5]),
    "sweep.step_MHz": st.sampled_from([0.1, 0.25, 1.0, -0.1]),
}


def _valid(field):
    if field.key in SWEEP_VALUES:
        return SWEEP_VALUES[field.key]
    if field.kind == "bool":
        return st.booleans()
    if field.kind == "choice":
        return st.sampled_from(field.choices)
    if field.kind == "finite":  # theta_rad
        return st.floats(0.0, math.pi)
    magnitude = st.floats(1e-3, 1e3) | st.integers(1, 1000) | st.sampled_from([1e-300, 1e300])
    return magnitude | magnitude.map(lambda v: -v) if field.kind == "nonzero" else magnitude


@st.composite
def configs(draw):
    """Each key present or not; one present value in eight is bad.  One
    config in eight also gets a bad section or an unknown key."""
    cfg = {}
    for field in FIELDS:
        if draw(st.booleans()):
            section, _, name = field.key.rpartition(".")
            node = cfg.setdefault(section, {}) if section else cfg
            node[name] = draw(BAD if draw(st.integers(0, 7)) == 7 else _valid(field))
    if draw(st.integers(0, 7)) == 7:
        cfg[draw(st.sampled_from(["options", "sweep", "omega_typo_MHz"]))] = draw(BAD)
    return cfg


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in output")


def _parse(text):
    return json.loads(text, parse_constant=_reject_constant)


def _run(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_path = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", cfg_path, "--out", out_path])
        artifact = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                artifact = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), artifact


# a warning would print extra stderr lines when run from a shell
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", SUBCOMMANDS)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cfg=configs())
def test_any_config_runs_or_gives_one_error_line(command, cfg):
    code, stdout, stderr, artifact = _run(command, cfg)
    if code == 1:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), stderr
        return
    assert code == 0 and stderr == "" and artifact is not None
    if command == "sweep":
        payload = _parse(stdout)
        rows = [row.split(",") for row in artifact.splitlines()[1:]]
        assert payload["rows"] == len(rows) > 0
        assert all(math.isfinite(float(v)) for row in rows for v in row)
    else:
        payload = _parse(artifact)
    # every value the file gave is echoed with its type (a null ratio may
    # come back as the default 2)
    for key, value in cfg.items():
        entries = value.items() if isinstance(value, dict) else [(None, value)]
        for name, item in entries:
            if item is None:
                continue
            echoed = payload["config"][key] if name is None else payload["config"][key][name]
            assert echoed == item and type(echoed) is type(item), (key, name, echoed)
