"""One benchmark interpreter, launched fresh by run.py.

It imports hnncert and parses or builds its workload's inputs (the set-up),
notes the monotonic clock, and then, unless ``--setup-only``, runs either
one ``certify`` config through ``hnncert.cli.main`` or one round of
library tasks.  Library tasks are checked here, after their timing, because
their outputs are large; certify reports are checked by run.py.  With
``--trace 1`` the calls are wrapped first (see spans.py) and the spans go
into the result.  The result is one JSON file at ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent


def plain(g) -> checker.Graph:
    return (g.num_vertices, g.edges, g.basepoint)


def certify_op(args, tracer) -> list[dict]:
    from hnncert import cli

    main = tracer.span("op", cli.main) if tracer else cli.main
    if tracer:
        tracer.begin_op(0)
    cpu, start = time.process_time(), time.perf_counter()
    record = {"name": args.config, "error": None}
    try:
        record["exit"] = main(["--input", args.input, "--output", args.report])
    except Exception as exc:  # the op fails; the benchmark keeps running
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["seconds"] = time.perf_counter() - start
    record["cpu_s"] = time.process_time() - cpu
    return [record]


def primitive_tasks(inputs) -> list:
    """(name, timed call, check of its result) for one round."""
    from hnncert import pullback, stallings
    from hnncert.graphmap import GraphMap, rose
    from hnncert.words import Word

    def rank_word(words):
        return [Word(w, 2) for w in words]

    tasks = []
    for i, (gens, products) in enumerate(inputs["folds"]):
        gw, pw = rank_word(gens), rank_word(products)

        def fold(gw=gw, pw=pw):
            return stallings.subgroup_graph(gw + pw, 2), stallings.subgroup_graph(gw, 2)

        def check_fold(result, gens=gens, products=products):
            wedge, alone = result
            checker.check_based_isomorphic(plain(wedge), plain(alone), 2)
            for w in gens + products:
                checker.require(checker.reads_closed_loop(plain(wedge), w), "a generator is not a closed loop")

        tasks.append((f"fold-{i}", fold, check_fold))

    for i, (h, k) in enumerate(inputs["intersections"]):
        hw, kw = rank_word(h), rank_word(k)

        def intersect(hw=hw, kw=kw):
            ch = stallings.core(stallings.subgroup_graph(hw, 2), keep_basepoint=True)
            ck = stallings.core(stallings.subgroup_graph(kw, 2), keep_basepoint=True)
            fp = pullback.fiber_product(ch, ck)
            base = fp.vertex_pairs.index((ch.basepoint, ck.basepoint))
            labels = stallings.component_labels(fp.graph)
            verts = [v for v in range(fp.graph.num_vertices) if labels[v] == labels[base]]
            sub, _ = stallings.subgraph_on(fp.graph, verts)
            return ch, ck, stallings.graph_rank(sub)

        def check_intersect(result, h=h, k=k):
            ch, ck, got = result
            for g, words in ((ch, h), (ck, k)):
                for w in words:
                    checker.require(checker.reads_closed_loop(plain(g), w), "a generator is not a closed loop")
            want = checker.intersection_rank(plain(ch), plain(ck), 2)
            checker.require(got == want, f"intersection rank {got} != {want}")

        tasks.append((f"intersect-{i}", intersect, check_intersect))

    for name, (images, depth) in inputs["fixtures"].items():
        r = rose(len(images))
        f = GraphMap(r, r, (0,), images)

        def filtration(f=f, depth=depth):
            return pullback.pullback_filtration(f, depth)

        def check_filtration(result, images=images):
            levels = [
                {
                    "vertices": lv.product.graph.num_vertices,
                    "edges": len(lv.product.graph.edges),
                    "signatures": [c.signature for c in lv.components],
                    "carried": list(lv.in_previous),
                }
                for lv in result.levels
            ]
            checker.check_filtration(images, levels)

        tasks.append((f"filtration-{name}", filtration, check_filtration))
    return tasks


def primitives_round(tasks, tracer) -> list[dict]:
    records = []
    for op, (name, call, check) in enumerate(tasks):
        if tracer:
            tracer.begin_op(op)
            call = tracer.span("op", call)
        record = {"name": name, "error": None, "check": None}
        cpu, start = time.process_time(), time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the op fails; the benchmark keeps running
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu
        if record["error"] is None:
            try:
                check(result)
            except checker.CheckError as exc:
                record["check"] = str(exc)
            del result
        records.append(record)
    return records


def trace_summary(tracer) -> dict:
    times = tracer.self_times()
    # the report write in cli.main follows emit_report and belongs to its gate
    ops = tracer.name_id("op")
    report = tracer.name_id("gate.report")
    ends = {}
    for op, nid, _, _, end in tracer.spans:
        if nid in (ops, report):
            ends.setdefault(op, {})[nid] = end
    tail = sum(e[ops] - e[report] for e in ends.values() if report in e and ops in e)
    if tail:
        times["gate.report"][0] += tail
        times["op"][0] -= tail
    return {
        "times": times,
        "counts": dict(tracer.counts),
        "names": tracer.names,
        "spans": tracer.spans,
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="config name, for a certify workload")
    p.add_argument("--report", help="where cli.main writes the report")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    if args.workload in workloads.CERTIFY:
        from hnncert import cli  # noqa: F401  (imported by set-up, used by the op)
        from hnncert.certify import parse_config

        names = [args.config] if args.config else workloads.CERTIFY[args.workload]
        for name in names:
            parse_config((HERE / "configs" / f"{name}.json").read_bytes())
        args.input = str(HERE / "configs" / f"{names[0]}.json")
    else:
        tasks = primitive_tasks(workloads.primitive_inputs(args.seed))
    result = {"ready": time.perf_counter()}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
        if args.workload in workloads.CERTIFY:
            result["ops"] = certify_op(args, tracer)
        else:
            result["ops"] = primitives_round(tasks, tracer)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            result["trace"] = trace_summary(tracer)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
