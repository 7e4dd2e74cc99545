"""Check one kill -9 smoke's ``repro stream --resume --verify`` run.

Usage::

    python3 .github/check_resume.py RESUME_LOG STATS_JSON

The seq the resume recovered must lie strictly between 0 and the run's
total ticks, which is the resumed run's final ``stream.seq`` in its
``--stats-out`` file: the kill hit a live run after its first durable
tick and before its last one.  Parity must have compared at least one
forecast.
"""

from __future__ import annotations

import json
import re
import sys


def main(log_path: str, stats_path: str) -> None:
    with open(log_path) as handle:
        log = handle.read()
    recovered = re.search(r"recovered \d+ series at seq (\d+)", log)
    parity = re.search(r"parity: (\d+) streamed forecast", log)
    assert recovered and parity, f"no recovery or parity line in:\n{log}"
    seq = int(recovered.group(1))
    compared = int(parity.group(1))
    with open(stats_path) as handle:
        total = int(json.load(handle)["stream"]["seq"])
    assert 0 < seq < total, (
        f"recovered seq {seq} is not inside (0, {total}): the kill did "
        f"not land mid-stream")
    assert compared > 0, "parity compared no forecast"
    print(f"resume smoke OK: recovered at seq {seq} of {total} ticks, "
          f"{compared} forecast(s) bitwise")


if __name__ == "__main__":
    main(*sys.argv[1:])
