"""Benchmark for hnncert: time to verdict on two workloads.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 60 --trace 0

Each operation runs in a fresh interpreter (worker.py), one interpreter at
a time.  Before the timed rounds, set-up probes launch interpreters that
only import hnncert and parse or build the inputs.  Every output is checked
with checker.py, which imports nothing from hnncert.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Each run also appends a full record
(per-round times, report digests, verdicts) to ``--out``; a traced run
writes its spans to ``perfbench/results/trace-<workload>-seed<seed>.json``.

Compare two result files (the median of each end-to-end metric, per
workload, against the bound in BENCHMARK.json):

    python3 perfbench/run.py --compare before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads
from spans import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
WORKER_TIMEOUT = 150  # seconds; the slowest op takes about 7 s here
EXIT_CODES = {"certified_hyperbolic": 0, "obstruction_BS": 2, "not_disjoint": 3, "inconclusive": 3}
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")


class WorkerError(RuntimeError):
    """A benchmark interpreter exited abnormally."""


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.launches = 0

    def launch(self, *extra: str) -> tuple[dict, float]:
        """Run one worker to its end; returns its result and launch time."""
        self.launches += 1
        out = self.workdir / f"worker-{self.launches}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), *extra]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker timed out after {exc.timeout} s") from exc
        if proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        data = json.loads(out.read_text())
        out.unlink()
        return data, start

    def setup_seconds(self) -> float:
        data, start = self.launch("--setup-only")
        return data["ready"] - start

    def round(self, trace: int) -> list[dict]:
        """One round of the workload's operations, each record checked."""
        if self.workload not in workloads.CERTIFY:
            try:
                data, _ = self.launch("--trace", str(trace))
            except WorkerError as exc:
                return [{"name": "round", "error": str(exc), "seconds": 0.0, "cpu_s": 0.0}]
            for record in data["ops"]:
                record["maxrss_kb"] = data["maxrss_kb"]
            if trace:
                data["ops"][0]["trace"] = data["trace"]
            return data["ops"]
        records = []
        for name in workloads.CERTIFY[self.workload]:
            report = self.workdir / f"{name}.report.json"
            try:
                data, _ = self.launch("--config", name, "--report", str(report), "--trace", str(trace))
            except WorkerError as exc:
                records.append({"name": name, "error": str(exc), "seconds": 0.0, "cpu_s": 0.0})
                continue
            record = data["ops"][0]
            record["maxrss_kb"] = data["maxrss_kb"]
            if trace:
                record["trace"] = data["trace"]
            if record["error"] is None:
                raw = report.read_bytes()
                report.unlink()
                record["digest"] = hashlib.sha256(raw).hexdigest()
                try:
                    parsed = json.loads(raw)
                    record["verdict"] = parsed["verdict"]
                    checker.require(
                        record["exit"] == EXIT_CODES.get(parsed["verdict"]),
                        f"exit code {record['exit']} does not match verdict {parsed['verdict']}",
                    )
                    check_report(name, parsed, self.seed)
                    record["check"] = None
                except (checker.CheckError, KeyError, TypeError, ValueError) as exc:
                    record["check"] = f"{type(exc).__name__}: {exc}"
            records.append(record)
        return records


def config_images(name: str) -> list[tuple[checker.Word, ...]]:
    data = json.loads((HERE / "configs" / f"{name}.json").read_text())
    return [tuple(checker.parse_word(s) for s in endo) for endo in data["endos"]]


def check_report(name: str, report: dict, seed: int) -> None:
    """The workload's checks on one certify report (see README.md)."""
    images = config_images(name)
    evidence = report["evidence"]
    per_endo = evidence["per_endomorphism"]
    for i, record in enumerate(per_endo):
        exp = record.get("expansion")
        if exp and exp["kind"] == "power":
            k = record["marking_k"]
            want = checker.expansion_power(images[i], 3 * k * k)
            checker.require(exp["n"] == want, f"endo {i + 1}: expansion power {exp['n']} != {want}")
    verdict, n, witness = report["verdict"], report["N"], report["witness"]
    if name == "green_pair":
        checker.require(verdict == "certified_hyperbolic", f"verdict {verdict}")
        powers = [r["pullback"]["n"] for r in per_endo if r["pullback"]["kind"] == "stabilized_at"]
        powers += [r["expansion"]["n"] for r in per_endo if r["expansion"]["kind"] == "power"]
        powers.append(evidence["disjointness"]["n"])
        checker.require(all(n % p == 0 for p in powers), f"N = {n} is not a multiple of {powers}")
        checker.check_positive_audits(images, n, seed)
    elif name == "obstructed_pair":
        checker.require(verdict == "obstruction_BS", f"verdict {verdict}")
        check_witness(images, witness)
    else:
        checker.require(verdict == "not_disjoint", f"verdict {verdict}")
        check_witness(images, witness)


def check_witness(images, witness: dict) -> None:
    if "loop" in witness:
        checker.check_bs_witness(
            images[witness["endo"] - 1], checker.parse_word(witness["loop"]),
            witness["degree"], witness["power"],
        )
    else:
        i, j = witness["pair"]
        checker.check_not_disjoint(
            images[i - 1], images[j - 1], witness["power"],
            checker.parse_word(witness["conjugator"]), checker.parse_word(witness["element"]),
        )


def failed(record: dict) -> bool:
    return record.get("error") is not None or record.get("check") is not None


def round_seconds(records: list[dict]) -> float:
    return sum(r["seconds"] for r in records)


def median_round_seconds(rounds: list[list[dict]]) -> float:
    """The sum over operations of each one's median time across rounds.

    Rounds hold the same operations in the same order; taking the median per
    operation keeps a burst of load on the machine, which slows whichever
    operations it overlaps, out of the figure."""
    return sum(statistics.median(times) for times in zip(*([r["seconds"] for r in rnd] for rnd in rounds)))


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in traced:
        trace = record.get("trace")
        if not trace:
            continue
        for name, (self_s, _, _) in trace["times"].items():
            times[name] = times.get(name, 0.0) + self_s
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    out = {}
    for metric in METRICS:
        out[metric] = times.get(metric[:-2], 0.0) if metric.endswith("_s") else counts.get(metric, 0)
    out["process.cpu_s"] = sum(r["cpu_s"] for r in untraced)
    out["trace.overhead_s"] = round_seconds(traced) - round_seconds(untraced)
    return out


def write_trace(path: Path, workload: str, seed: int, traced: list[dict]) -> None:
    """Spans of every op of the traced round; span ``op`` indexes ``ops``
    and ``parent`` indexes ``spans`` (-1 for a root)."""
    names: list[str] = []
    spans: list[list] = []
    totals: dict[str, list[float]] = {}
    for index, record in enumerate(traced):
        trace = record.get("trace")
        if not trace:
            continue
        base = len(spans)
        ids = []
        for name in trace["names"]:
            if name not in names:
                names.append(name)
            ids.append(names.index(name))
        for op, nid, parent, start, end in trace["spans"]:
            spans.append([index + op, ids[nid], parent + base if parent >= 0 else -1, start, end])
        for name, row in trace["times"].items():
            total = totals.setdefault(name, [0.0, 0.0, 0])
            for k in range(3):
                total[k] += row[k]
    summary = {n: {"self_s": t[0], "inclusive_s": t[1], "calls": t[2]} for n, t in sorted(totals.items())}
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "ops": [r["name"] for r in traced],
        "names": names, "span_fields": ["op", "name", "parent", "start", "end"],
        "summary": summary, "spans": spans,
    }))


def revision() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def run(args) -> int:
    if not (ROOT / "src" / "hnncert" / "__init__.py").is_file():
        print(f"run.py: no hnncert source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(args.workload, args.seed, workdir)
    try:
        try:
            setups = [runner.setup_seconds() for _ in range(SETUP_PROBES)]
        except WorkerError as exc:
            print(f"run.py: set-up failed: {exc}", file=sys.stderr)
            return 1
        rounds = []
        if args.trace:
            rounds.append(runner.round(0))
            rounds.append(runner.round(1))
        else:
            start = time.perf_counter()
            longest = 0.0
            # a round starts only if it can end within --seconds, judged by
            # the longest round so far; the first round always runs
            while not rounds or time.perf_counter() - start + longest <= args.seconds:
                began = time.perf_counter()
                rounds.append(runner.round(0))
                longest = max(longest, time.perf_counter() - began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for rnd in rounds for r in rnd]
    attempted = len(records)
    n_failed = sum(1 for r in records if failed(r))
    correct = not any(r.get("check") for r in records)
    if args.trace:
        untraced, traced = rounds
        same = [(r.get("verdict"), r.get("digest")) for r in untraced] == [
            (r.get("verdict"), r.get("digest")) for r in traced]
        correct = correct and same
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in layer_metrics(traced, untraced).items()}
        write_trace(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", args.workload, args.seed, traced)
    else:
        ok = [r for r in records if not failed(r)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": median_round_seconds(rounds), "unit": "s"},
            "peak_rss_mb": {"value": max((r["maxrss_kb"] for r in ok), default=0) / 1024, "unit": "MB"},
        }

    for rnd in rounds:
        for r in rnd:
            r.pop("trace", None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "revision": revision(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "setup_samples": setups, "rounds": rounds, "metrics": metrics,
    }
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for r in records:
        if failed(r):
            print(f"failed: {r['name']}: {r.get('error') or r.get('check')}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {attempted} failed {n_failed} correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed, "metrics": metrics}))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def op_median(record: dict, op: str) -> float:
    return statistics.median(r["seconds"] for rnd in record["rounds"] for r in rnd if r["name"] == op)


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        by = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    by.setdefault(rec["workload"], []).append(rec)
        return by

    a, b = load(path_a), load(path_b)
    worse = 0
    print(f"{'workload':<13} {'metric':<18} {'A median':>10} {'A q1..q3':>21} "
          f"{'B median':>10} {'B q1..q3':>21} {'change':>8}  within bound")
    for workload in workloads.WORKLOADS:
        if workload not in a or workload not in b:
            continue
        for name in END_TO_END:
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            change = qb[1] / qa[1] - 1
            sign = 1 if bounds[name]["better"] == "lower" else -1
            within = sign * change <= bounds[name]["bound"]
            worse += not within
            print(f"{workload:<13} {name:<18} {qa[1]:>10.4g} {qa[0]:>10.4g}..{qa[2]:<10.4g} "
                  f"{qb[1]:>10.4g} {qb[0]:>10.4g}..{qb[2]:<10.4g} {change:>+8.1%}  "
                  f"{'yes' if within else 'NO'} (bound {bounds[name]['bound']:.0%})")
        # each operation's share of run_s, as information: a run's value is
        # the operation's median over the run's rounds
        if workload in workloads.CERTIFY:
            for op in workloads.CERTIFY[workload]:
                qa, qb = (quartiles([op_median(r, op) for r in runs]) for runs in (a[workload], b[workload]))
                print(f"{workload:<13} {'  ' + op:<18} {qa[1]:>10.4g} {qa[0]:>10.4g}..{qa[2]:<10.4g} "
                      f"{qb[1]:>10.4g} {qb[0]:>10.4g}..{qb[2]:<10.4g} {qb[1] / qa[1] - 1:>+8.1%}  (information)")
        fa = sum(r["failed"] for r in a[workload]), sum(r["attempted"] for r in a[workload])
        fb = sum(r["failed"] for r in b[workload]), sum(r["attempted"] for r in b[workload])
        print(f"{workload:<13} {'failed':<18} {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]}")

    def digests(runs):
        out = {}
        for rec in runs:
            for rnd in rec["rounds"]:
                for r in rnd:
                    if r.get("digest"):
                        out.setdefault(r["name"], set()).add(r["digest"])
        return out

    for workload in workloads.WORKLOADS:
        da, db = digests(a.get(workload, [])), digests(b.get(workload, []))
        for name in sorted(set(da) | set(db)):
            if da.get(name) != db.get(name):
                print(f"digest moved (information): {workload} {name}: "
                      f"{sorted(da.get(name, ()))} -> {sorted(db.get(name, ()))}")
    return 1 if worse else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(RESULTS / "runs.jsonl"), help="result file to append to")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
