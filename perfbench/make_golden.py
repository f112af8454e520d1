"""
Regenerate perfbench/golden.json from a source checkout:

    python3 perfbench/make_golden.py

It classifies all of A3 (about a minute) and writes the per-w digests only
if the whole CSV and JSON reports match the ROADMAP digests and counts, then
records the digests of the A4 bar r table and T-basis products. Run it only
on code whose outputs are known good; the benchmark checks against it.
"""

from __future__ import annotations

import json
import sys

import run
from tracing import plain_call


def main() -> int:
    run.add_source_path()
    import workloads as wl

    classify = wl.ClassifyA3(seed=0, golden={}, full=True)
    out = classify.run(classify.setup(plain_call), plain_call)
    csv_text, json_text = out.data["csv"], out.data["json"]
    failures = wl.full_report_failures(csv_text, json_text)
    if failures:
        print("make_golden: " + "; ".join(failures), file=sys.stderr)
        return 1
    per_w = wl.per_w_digests(csv_text, json_text)

    tables = wl.TablesA4(seed=0, golden={})
    state = tables.setup(plain_call)
    tables.run(state, plain_call)

    golden = {
        "classify-a3": {
            "csv_sha256": wl.sha256(csv_text),
            "json_sha256": wl.sha256(json_text),
            "per_w": dict(sorted(per_w.items())),
        },
        "tables-a4": wl.table_digests(*state),
    }
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
