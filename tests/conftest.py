import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(code, *args)`` -> stdout of ``python -c code *args`` in a
    new interpreter that imports this checkout's package, for checks of
    what an import loads."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}

    def run(code: str, *args: str) -> str:
        done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture(scope="session")
def shipped_run(tmp_path_factory):
    """``shipped_run(name, command)`` -> (exit code, output directory) of
    ``schwarz1d --quiet <command> --config configs/<name>.json``.

    Each shipped config runs once per session, however many tests read
    its output.
    """
    from schwarz1d.cli import main

    done = {}

    def run(name: str, command: str = "run"):
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            config = str(CONFIGS / f"{name}.json")
            done[name] = main(["--quiet", command, "--config", config, "--out", str(out)]), out
        return done[name]

    return run
