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
