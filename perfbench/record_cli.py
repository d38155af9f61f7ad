"""Record the output of every cli workload case into cli_golden.json.

Usage, from the root of a checkout: ``python3 perfbench/record_cli.py``.
The recorded file is the expected outcome of the cli workload, so record it
only at a commit whose output is known good; a later commit must reproduce
it byte for byte.
"""

import json
import sys

import jobs
from worker import Cli


def main() -> int:
    kmf = Cli(traced=False)
    golden = {}
    for case in jobs.all_cli_cases():
        proc, _ = kmf.run({"args": case["args"], "stdin": case["stdin"]}, 0)
        golden[case["key"]] = {"exit": proc.returncode, "stdout": proc.stdout.decode()}
    with open(jobs.CLI_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(golden)} cases in {jobs.CLI_GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
