"""Record the artifact digests of the current source as ``digests.json``.

Usage, from the root of a source checkout::

    python3 bench/pin_digests.py [FIRST_SEED LAST_SEED]

Runs each workload once per seed (default 0 to 10) and stores the SHA-256
of its artifact directory.  ``run.py`` then reports whether a run's bytes
match the pinned ones, as a field of its record rather than a failure, so
that an intentional ``RNG_ID`` or ``ARTIFACT_VERSION`` bump stays visible.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(first: int, last: int) -> None:
    run.OUT.mkdir(exist_ok=True)
    table = {}
    work_dir = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT))
    try:
        for name in workloads.WORKLOADS:
            for seed in range(first, last + 1):
                sample = run.run_child({"workload": name, "seed": seed,
                                        "scale": 1.0, "trace": False,
                                        "out_dir": str(work_dir / name)})
                shutil.rmtree(work_dir / name, ignore_errors=True)
                if sample.get("error"):
                    sys.exit(f"{name} seed {seed}: {sample['error']}")
                table.setdefault(name, {})[str(seed)] = sample["digest"]
                print(name, seed, sample["digest"], flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.PINNED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    bounds = [int(a) for a in sys.argv[1:3]] or [0, 10]
    main(*bounds)
