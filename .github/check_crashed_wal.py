"""Check that a kill -9 smoke killed a run holding a mapped WAL segment.

Usage, between the kill and the ``--resume``::

    PYTHONPATH=src python3 .github/check_crashed_wal.py SNAPSHOT_DIR

At least one ``wal-*.log`` in SNAPSHOT_DIR must end in zeros past its
last committed record: the process died while a segment was open,
preallocated and mapped, so the resume reads a crash's layout (a zero
tail, perhaps behind one uncommitted frame) rather than a cleanly
closed segment.  Every segment must read cleanly under the strict
reader.
"""

from __future__ import annotations

import glob
import os
import sys

from repro.durable import scan_wal


def main(directory: str) -> None:
    paths = sorted(glob.glob(os.path.join(directory, "wal-*.log")))
    assert paths, f"no WAL segment in {directory!r}"
    crashed = []
    for path in paths:
        _, records, end = scan_wal(path)  # raises on a torn tail
        with open(path, "rb") as handle:
            handle.seek(end)
            tail = handle.read()
        if tail and tail[-1] == 0:
            crashed.append((os.path.basename(path), len(records), len(tail)))
    assert crashed, (
        f"no WAL segment in {directory!r} ends in zeros past its last "
        f"record: the kill did not land on an open, mapped segment")
    for name, records, tail in crashed:
        print(f"crashed WAL OK: {name} holds {records} record(s) and "
              f"{tail} byte(s) after them")


if __name__ == "__main__":
    main(*sys.argv[1:])
