"""Fail a perfbench run whose share of failed operations rises above a bound.

    python3 .github/failure_share.py RUN_OUTPUT FAILED ATTEMPTED

RUN_OUTPUT holds what `perfbench/run.py` wrote to stdout; its last line is
the run's JSON record.  The file is echoed, then the run passes while its
failed / attempted is at most FAILED / ATTEMPTED, the share of the commit
the bound was taken from.  The shares are compared as exact integer
products, so a run of several passes meets the bound of one pass.
"""

import json
import sys


def main(path: str, failed: str, attempted: str) -> int:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    print(text, end="")
    record = json.loads(text.splitlines()[-1])
    ok = record["failed"] * int(attempted) <= int(failed) * record["attempted"]
    print(f"failure share {record['failed']}/{record['attempted']}, "
          f"bound {failed}/{attempted}: {'ok' if ok else 'RISEN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
