#!/usr/bin/env python3
"""Check the files a CSRL_TRACE=1 run wrote under its CSRL_OBS_OUT stem.

Usage: check_obs_output.py <stem>

Parses <stem>.trace.json (Chrome trace-event array) and
<stem>.metrics.json (counters/gauges/histograms object) and fails unless
the trace holds at least one complete span and the metrics at least one
counter.  Plain python3, no dependencies; the traced example smokes in
examples/CMakeLists.txt run it after each traced run.
"""

import json
import sys


def check(stem):
    """Return a list of problems with the two files under `stem`."""
    problems = []
    try:
        with open(stem + ".trace.json", encoding="utf-8") as f:
            trace = json.load(f)
        spans = [e for e in trace
                 if isinstance(e, dict) and e.get("ph") == "X"
                 and isinstance(e.get("name"), str)]
        if not spans:
            problems.append(stem + ".trace.json holds no span")
    except (OSError, ValueError, TypeError) as exc:
        problems.append(f"{stem}.trace.json unreadable: {exc}")
    try:
        with open(stem + ".metrics.json", encoding="utf-8") as f:
            metrics = json.load(f)
        counters = metrics.get("counters")
        if not isinstance(counters, dict) or not counters:
            problems.append(stem + ".metrics.json holds no counter")
    except (OSError, ValueError, AttributeError) as exc:
        problems.append(f"{stem}.metrics.json unreadable: {exc}")
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = check(argv[1])
    for p in problems:
        print("error: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
