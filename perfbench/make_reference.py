#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program in src/.

    python3 perfbench/make_reference.py

Runs the fixed-input check case of every workload and stores its
envelopes and reliability curves.  Regenerate only when a change to the
program is meant to move these numbers, and say so in the change.
"""

import json
import sys

import run


def main() -> int:
    run.import_program()
    ref = {}
    for name, cls in run.WORKLOADS.items():
        wl = cls(0, run.FULL, run.OUT / f"reference-{name}")
        doc = wl.check_case()
        ref[name] = {k: doc[k] for k in ("samples", "t", "envelopes", "reliability") if k in doc}
    run.REFERENCE.write_text(json.dumps(ref) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
