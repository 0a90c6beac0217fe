"""Run the 700-config sweep in-process, or compare two of its records.

A run certifies each config and records its report's SHA-256, verdict,
disjointness kind and n, and its time.

Run one tree (from the repository root; ``--tree`` picks another checkout,
whose ``src`` is imported instead of this one's):

    python3 tools/sweep.py run after.json
    python3 tools/sweep.py run --tree ../parent before.json

Compare two records, printing each config whose report moved with its
verdict, disjointness kind and n before and after, and each config found in
one record only:

    python3 tools/sweep.py compare before.json after.json

The comparison counts moved verdicts apart from moved report bytes, and
exits with status 1 when a verdict or a status (``ok``, ``timeout``,
``memory``) moved or a config is in one record only, so it can gate a
change that must keep every verdict.

The configs are drawn like ``seeded_corpus`` in tests/test_certify.py, at
default caps: rank 2-4 over abcd/ABCD, one to three maps, 400 with images of
2-5 letters from ``random.Random(1)`` and 300 with images of 4-8 letters
from ``random.Random(2)``; drafts that ``parse_config`` rejects are skipped.
Each config runs under a 3 GB address-space limit and a 10 s alarm, so one
that runs away is recorded as ``memory`` or ``timeout`` and the sweep goes
on.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRAWS = ((400, 1, 2, 5), (300, 2, 4, 8))  # (count, seed, shortest, longest image)
SECONDS = 10  # alarm per config
MEMORY = 3 * 2**30  # address-space limit, bytes


def draw(count: int, seed: int, shortest: int, longest: int, parse) -> list[dict]:
    """``count`` configs that ``parse`` accepts, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    configs = []
    while len(configs) < count:
        rank = rng.randint(2, 4)
        letters = "abcd"[:rank] + "ABCD"[:rank]
        endos = [
            [
                "".join(rng.choice(letters) for _ in range(rng.randint(shortest, longest)))
                for _ in range(rank)
            ]
            for _ in range(rng.randint(1, 3))
        ]
        config = {"rank": rank, "endos": endos}
        try:
            parse(json.dumps(config).encode())
        except ValueError:
            continue
        configs.append(config)
    return configs


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run(tree: Path, out: Path) -> None:
    sys.path.insert(0, str(tree / "src"))
    from hnncert.certify import certify, emit_report, parse_config

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, resource.getrlimit(resource.RLIMIT_AS)[1]))
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    start = time.perf_counter()
    for count, seed, shortest, longest in DRAWS:
        for config in draw(count, seed, shortest, longest, parse_config):
            record = {"config": config}
            t0 = time.perf_counter()
            signal.alarm(SECONDS)
            try:
                cert = certify(parse_config(json.dumps(config).encode()))
                report = emit_report(cert)
            except Timeout:
                record["status"] = "timeout"
            except MemoryError:
                record["status"] = "memory"
            else:
                disjointness = cert.evidence["disjointness"]
                record.update(
                    status="ok",
                    digest=hashlib.sha256(report).hexdigest(),
                    verdict=cert.verdict,
                    kind=disjointness["kind"],
                    n=disjointness["n"],
                )
            finally:
                signal.alarm(0)
            record["seconds"] = round(time.perf_counter() - t0, 4)
            records.append(record)
    total = time.perf_counter() - start
    out.write_text(json.dumps({"tree": str(tree), "seconds": round(total, 2), "configs": records}, indent=1))
    verdicts = collections.Counter(r.get("verdict", r["status"]) for r in records)
    slowest = max(records, key=lambda r: r["seconds"])
    print(f"{len(records)} configs in {total:.1f} s: {dict(verdicts)}")
    print(f"slowest {slowest['seconds']} s: {json.dumps(slowest['config'])}")


def _outcome(record: dict) -> str:
    if record["status"] != "ok":
        return record["status"]
    return f"{record['verdict']} {record['kind']} n {record['n']}"


def compare(before: Path, after: Path) -> int:
    """Print what moved between two records; 1 if a verdict or a status
    moved or a config is in one record only, else 0."""
    old, new = (json.loads(p.read_text()) for p in (before, after))
    old_by_config, new_by_config = (
        {json.dumps(r["config"]): r for r in record["configs"]} for record in (old, new)
    )
    moved = verdicts = unmatched = 0
    for key, a in old_by_config.items():
        b = new_by_config.get(key)
        if b is None:
            print(f"only before: {key}")
            unmatched += 1
            continue
        if (a["status"], a.get("digest")) == (b["status"], b.get("digest")):
            continue
        moved += 1
        verdict_moved = (a["status"], a.get("verdict")) != (b["status"], b.get("verdict"))
        verdicts += verdict_moved
        print(key + ("  (verdict moved)" if verdict_moved else ""))
        print(f"  {_outcome(a)} ({a['seconds']} s) -> {_outcome(b)} ({b['seconds']} s)")
    for key in new_by_config:
        if key not in old_by_config:
            print(f"only after: {key}")
            unmatched += 1
    print(
        f"{moved} of {len(old['configs'])} reports moved, {verdicts} of them in verdict "
        f"or status; {unmatched} configs in one record only; "
        f"{old['seconds']} s -> {new['seconds']} s"
    )
    return int(verdicts > 0 or unmatched > 0)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="certify every config of the sweep and record its report")
    r.add_argument("out", type=Path)
    r.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src is imported")
    c = sub.add_parser("compare", help="print the configs whose reports moved")
    c.add_argument("before", type=Path)
    c.add_argument("after", type=Path)
    args = p.parse_args(argv)
    if args.mode == "run":
        run(args.tree.resolve(), args.out)
    else:
        sys.exit(compare(args.before, args.after))


if __name__ == "__main__":
    main()
