"""Set-up probe: a fresh interpreter imports the program and runs one warm-up
op, then prints when it finished (wall clock) and a digest of the op's stdout.
The parent times the probe from just before it spawned the process.

    python3 perfbench/probe.py <bornbox argv...>
"""

import contextlib
import hashlib
import io
import json
import sys
import time

import env

env.use_checkout_source()
from bornbox.cli import run_command  # noqa: E402

out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    rc = run_command(sys.argv[1:])
done = time.time()
print(json.dumps({"rc": rc, "done": done,
                  "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
