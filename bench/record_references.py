"""Write references.json: exit code and stdout digest of every operation.

    python3 bench/record_references.py

Runs one untraced pass of each workload at the default seed.  Run it only
when an output change is intended, and say so where the change is made:
the digests are what the benchmark's output gate compares against.
"""

import json
import sys
import tempfile

import run
from workloads import DEFAULT_SEED, IN_PROCESS, WORKLOADS, digest


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.RESULTS_DIR.mkdir(exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=run.RESULTS_DIR) as scratch:
        for name, script in WORKLOADS.items():
            p = run.run_pass(script, DEFAULT_SEED, {}, scratch, run.child_env(),
                             name in IN_PROCESS, traced=False)
            for o in p.ops:
                if o.problems:
                    print(f"{name} {o.label}: {o.problems}", file=sys.stderr)
                    return 1
            refs[name] = {o.label: {"exit": o.code, "sha256": digest(o.out)}
                          for o in p.ops}
            print(f"{name}: {len(p.ops)} operations in {p.wall:.2f} s")
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
