"""The command line run in a child process under an address-space cap and a
timeout, for tests on hostile input.  The child sets the cap on itself
before it imports qhopf, so the cap bounds that process only: never the
test runner, and never the machine."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
MAIN = """
import resource, sys
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from qhopf.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_capped(args, address_space=1_500_000_000, timeout=60):
    """The CompletedProcess (text stdout and stderr) of `qhopf args` with
    RLIMIT_AS capped at address_space bytes; subprocess.TimeoutExpired
    past timeout seconds."""
    return subprocess.run(
        [sys.executable, "-c", MAIN, str(address_space)] + list(args),
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=SRC))
