#!/usr/bin/env python3
"""Check Chrome trace files written by `paredown --trace`.

Usage: check_trace.py FILE [FILE ...]

Each FILE must parse as a JSON array of trace events whose B/E events
balance and nest on every tid.  When several files are given (the same
run at different --jobs), they must all hold the same multiset of span
names.  Exits 1 with a message on the first violation.
"""

import collections
import json
import sys


def spans(path):
    try:
        with open(path) as f:
            events = json.load(f)
    except ValueError as e:
        sys.exit(f"{path}: not valid JSON: {e}")
    stacks = collections.defaultdict(list)
    names = collections.Counter()
    for i, e in enumerate(events):
        ph, tid, name = e.get("ph"), e.get("tid"), e.get("name")
        if ph == "B":
            stacks[tid].append(name)
            names[name] += 1
        elif ph == "E":
            if not stacks[tid] or stacks[tid][-1] != name:
                open_ = stacks[tid][-1] if stacks[tid] else None
                sys.exit(f"{path}: event {i}: E {name!r} on tid {tid} "
                         f"closes {open_!r}")
            stacks[tid].pop()
    for tid, stack in stacks.items():
        if stack:
            sys.exit(f"{path}: tid {tid} leaves {stack} open")
    return names


def main(paths):
    if not paths:
        sys.exit(__doc__)
    first = spans(paths[0])
    for path in paths[1:]:
        other = spans(path)
        if other != first:
            sys.exit(f"{path}: span names {dict(other)} differ from "
                     f"{paths[0]}: {dict(first)}")
    total = sum(first.values())
    print(f"trace ok: {', '.join(paths)} ({total} spans, "
          f"{len(first)} names)")


if __name__ == "__main__":
    main(sys.argv[1:])
