#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny problem sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, and no failed operation; and that corrupted outputs (lower and
upper swapped in report.json, or one byte flipped in a threads=2 output
file) are caught as failed operations.  Exits 1 on any problem.
"""

import contextlib
import io
import json
import sys

import run


def printed_result(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
            sizes=run.TINY,
        )
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = printed_result(workload, trace)
            if result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed operations")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{workload} trace={trace}: {m['name']} not printed")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} unit {got['unit']}")

    for corrupt, expected in (("swap", "envelope subdomain"), ("flip", "byte-identical")):
        _, ledger, _ = run.run("gpt4o_infer", 7, 0, False, run.TINY, corrupt)
        caught = [f for f in ledger.failures if expected in f]
        rate = len(ledger.failures) / ledger.attempted
        print(f"corrupt={corrupt}: error_rate {rate:.4g}, caught by {len(caught)} checks")
        if not caught or rate <= 0:
            problems.append(f"corrupt={corrupt} not caught: {ledger.failures}")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
