"""One set-up as a user pays it: a fresh interpreter imports diskbern and
builds the workload's inputs, then prints `ready`. run.py times this from
process start to the `ready` line.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

import srcpath

srcpath.use_checkout_source()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
