"""The run path needs numpy alone.

``pyproject.toml`` declares numpy as the only dependency, so a default
``repro.run`` (metrics on, which builds the structured run report) and
the ``repro.analysis`` / ``repro.experiments`` packages must import and
run on an install that has nothing else. The check runs in a fresh
interpreter where ``import networkx`` fails, whether or not the
developer's environment happens to have it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["networkx"] = None  # any `import networkx` now raises

    import repro

    result = repro.run("rbgs:tiny", runtime="v5")
    assert result.report is not None, "metrics-on run built no report"
    import repro.analysis
    import repro.experiments

    print("numpy-only ok")
    """
)


def test_run_and_packages_import_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy-only ok" in proc.stdout
