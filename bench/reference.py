"""Fixed pure-Python task that the benchmark times before every batch.

Usage: python bench/reference.py

It uses nothing from bucketlens and does the same kind of work (JSON lines
parsed into dicts, filtered, sorted and re-serialized), so it slows down and
speeds up with the machine but never with a change to the program. The
benchmark divides each batch's wall time by the wall time of the reference
run just before it; on a shared machine whose speed drifts by tens of
percent over minutes, that ratio stays put while raw times do not.
"""

import json

GRANT = {"uri": "http://acs.amazonaws.com/groups/global/AllUsers", "permission": "READ"}


def main() -> None:
    rows = [
        {
            "name": f"bucket-{i:05d}",
            "grants": [GRANT] * (i % 3),
            "tags": {"env": str(i % 7), "team": f"t{i % 11}"},
            "flags": [i % 2 == 0, i % 3 == 0, i % 5 == 0],
        }
        for i in range(3000)
    ]
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    for _ in range(3):
        parsed = [json.loads(line) for line in text.splitlines()]
        kept = sorted(
            (row["name"], len(row["grants"]), row["tags"]["team"])
            for row in parsed
            if row["flags"][0] or row["flags"][2]
        )
        text = "\n".join(json.dumps(row, sort_keys=True) for row in parsed)
    print(len(kept))


if __name__ == "__main__":
    main()
