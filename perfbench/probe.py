"""One set-up of a workload in a fresh interpreter: import interlock and
make the workload's first calls at the warm-up size.

    python3 perfbench/probe.py WORKLOAD WORKDIR

run.py times this whole process, interpreter start included, as `setup_s`.
The host is gauged from the import of interlock on; the last line of
stdout gives the gauge's own time and the host's slowdown as JSON.
"""

import json
import sys
from pathlib import Path

from gauge import Sampler

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if __name__ == "__main__":
    with Sampler() as sampler:
        import workloads

        workloads.warm_up(sys.argv[1], Path(sys.argv[2]))
    print(json.dumps({"spent": sampler.spent, "slowdown": sampler.slowdown()}))
