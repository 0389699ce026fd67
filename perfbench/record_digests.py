#!/usr/bin/env python3
"""Record the output digest of every instance the benchmark can run.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known to be right.  It
rewrites ``perfbench/digests.json``; ``git diff`` then shows which digests
changed.  A change that alters any digest changes what
the library computes, and the benchmark counts it as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads   # noqa: E402


def main() -> int:
    digests = {}
    lib = workloads.load_library()
    for name in workloads.WORKLOADS:
        t0 = perf_counter()
        keys = workloads.all_keys(name)
        for key in keys:
            inst = workloads.make(lib, key)
            digests[key] = inst.digest(inst.run())
        print(f"{name}: {len(keys)} instances in "
              f"{perf_counter() - t0:.1f}s", file=sys.stderr)
    (HERE / "digests.json").write_text(
        json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
