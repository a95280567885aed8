"""Record the stdout digest of every exact-tables command variant.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only on a commit whose exact output is
the reference: exact routes must stay bit-identical, and run.py counts any
later difference as a failed item.  Every variant is recorded, so every seed
is checked, the documented development and held-out seeds included.
"""

import json
import os
import sys

import run
import workloads as W


def main():
    env = run.child_env()
    items = []
    for name, _ in W.EXACT_COMMANDS:
        seen = set()
        for variant in range(W.VARIANTS):
            argv = W.exact_argv(name, variant)
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                items.append({"name": name, "variant": variant, "argv": argv})
    reply, _ = run.spawn({"kind": "exact", "items": items}, env)
    by_argv = {}
    for item, result in zip(items, reply["results"]):
        if result["status"] != "ok" or result["rc"] != 0:
            sys.exit("command %s failed: %r" % (item["argv"], result))
        by_argv[tuple(item["argv"])] = {"sha256": result["sha256"], "bytes": result["bytes"]}
    commands = {}
    for name, _ in W.EXACT_COMMANDS:
        commands[name] = {}
        for variant in range(W.VARIANTS):
            argv = W.exact_argv(name, variant)
            commands[name][str(variant)] = dict(by_argv[tuple(argv)], argv=argv)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as f:
        json.dump({"commands": commands}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
