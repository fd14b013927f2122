"""Pin the digests of finished runs as the reference.

    python3 clawbench/record_reference.py

Every run of clawbench/run.py writes the digest of each checked result to
clawbench/out/digests-<workload>-seed<seed>.json. This script merges those
files into clawbench/reference.json. A key that is already pinned keeps its
digest; a run that disagrees with it is reported and nothing is written.
Run it only on a commit whose behaviour is the intended reference.
"""

import glob
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    pinned = doc["digests"]
    added, clashes = 0, []
    for name in sorted(glob.glob(os.path.join(BENCH_DIR, "out", "digests-*.json"))):
        with open(name, encoding="utf-8") as fh:
            for key, digest in json.load(fh).items():
                if key not in pinned:
                    pinned[key] = digest
                    added += 1
                elif pinned[key] != digest:
                    clashes.append(f"{os.path.basename(name)}: {key}")
    if clashes:
        print("digests disagree with the reference:\n  " + "\n  ".join(clashes), file=sys.stderr)
        return 1
    doc["digests"] = dict(sorted(pinned.items()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{added} digests added, {len(pinned)} pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
