"""Fail a perfbench run whose share of failed operations rises above a bound.

    python3 .github/failure_share.py RUN_OUTPUT WORKLOAD

RUN_OUTPUT holds what `perfbench/run.py --workload WORKLOAD` wrote to
stdout; its last line is the run's JSON record.  The file is echoed, then
the run passes while its failed / attempted is at most WORKLOAD's bound in
BOUNDS, the share of the commit the bound was taken from.  The shares are
compared as exact integer products, so a run of several passes meets the
bound of one pass.

The bounds, as failed operations of attempted ones per pass:
- cli 1 of 55: the summary of workloads.NAN_DEFECT;
- analysis 7 of 680;
- bulk 0 of 42;
- tight_quadrature 0 of 670.
A change that mends a defect lowers its bound.
"""

import json
import sys

BOUNDS = {"cli": (1, 55), "analysis": (7, 680), "bulk": (0, 42),
          "tight_quadrature": (0, 670)}


def main(path: str, workload: str) -> int:
    failed, attempted = BOUNDS[workload]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    print(text, end="")
    record = json.loads(text.splitlines()[-1])
    ok = record["failed"] * attempted <= failed * record["attempted"]
    print(f"failure share {record['failed']}/{record['attempted']}, "
          f"bound {failed}/{attempted}: {'ok' if ok else 'RISEN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
