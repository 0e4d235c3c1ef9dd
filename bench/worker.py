"""Child-process side of the benchmark; run.py starts every mode here.

    worker.py setup WORKLOAD SEED
        Set the workload up, print READY and exit (a set-up time sample).
    worker.py loop WORKLOAD SEED SECONDS TRACE SPANS_FILE
        Set up, print READY, run whole rounds of ops until SECONDS have
        passed (one round when SECONDS <= 0), check the results and print
        one JSON line.  With TRACE 1 the library is wrapped before set-up
        and the spans are written to SPANS_FILE.
    worker.py cli SPANS_FILE COMMAND_ID ARGV...
        The traced CLI runner: wrap the library, then cyclevote.cli.main(ARGV).
    worker.py probe NAME SEED
        One cold layer probe in this fresh interpreter; prints {"ms": ...}.

Children get PYTHONPATH pointing at the library sources; this directory is
on sys.path because Python runs this file as a script.
"""
from __future__ import annotations

import json
import sys
import time

import inputs


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


# -- in-process workloads ----------------------------------------------------------

def run_loop(name: str, seed: int, seconds: float, traced: bool, spans_file: str) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    tracer = Tracer() if traced else None
    if tracer:
        workload.install(tracer)
    workload.setup()
    if tracer:
        setup_stats, tracer.stats = tracer.stats, {}
    print("READY", flush=True)

    clock = time.perf_counter
    latencies, records, raised, problems = [], [], {}, []
    start = clock()
    i = 0
    while not (i and i % workload.round_len == 0 and (seconds <= 0 or clock() - start >= seconds)):
        t0 = clock()
        try:
            if tracer:
                tracer.op = i
                with tracer.span("op"):
                    rec = workload.op(i)
            else:
                rec = workload.op(i)
            rec["i"] = i
            records.append(rec)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raised[i] = f"op {i}: {exc!r}"
        latencies.append(clock() - t0)
        i += 1
        if i % workload.round_len == 0:
            problems += workload.check_round(records)
            records = []
    elapsed = clock() - start

    failed_ops = set(raised) | {i for i, _ in problems}
    result = {
        "latencies_s": latencies,
        "round_len": workload.round_len,
        "elapsed_s": elapsed,
        "attempted": len(latencies),
        "failed": len(failed_ops),
        "errors": list(dict.fromkeys([*raised.values(), *(msg for _, msg in problems)]))[:20],
        "counts": workload.counts(),
    }
    if tracer:
        result["counts"].update(
            {f"{k}.calls": v[0] for k, v in sorted(tracer.stats.items()) if k != "op"})
        tracer.restore()
        result["trace"] = trace_summary(tracer, workload, setup_stats)
        tracer.dump(spans_file, {"workload": name, "seed": seed})
    _print_json(result)
    return 0


def trace_summary(tracer, workload, setup_stats: dict) -> dict:
    """Per-name statistics of the timed ops, span durations by op label."""
    by_label: dict[str, dict[str, list[float]]] = {}
    for _, name, t0, t1, _, op in tracer.spans:
        label = "setup" if op == "setup" else workload.op_label(op)
        by_label.setdefault(name, {}).setdefault(label, []).append(t1 - t0)
    summary = {
        "ops": sum(1 for s in tracer.spans if s[1] == "op"),
        "stats": tracer.stats,
        "setup_stats": setup_stats,
        "self_s": tracer.self_by_module(),
        "by_label": by_label,
    }
    summary.update(workload.replays())
    return summary


# -- traced CLI runner -------------------------------------------------------------

def install_cli(tracer) -> None:
    """Wrap the calls the CLI makes across modules, and the name-bound hot leaves."""
    from cyclevote import _linalg, analysis, ballots, cyclic_orders, representation, scoring

    wrapped = {
        analysis: ("subspace_catalog", "catalog_for_space", "parse_profile", "format_profile",
                   "tally", "kernel_basis", "effective_basis", "scaling_report",
                   "masking_profile"),
        scoring: ("named_rule", "build_neutral_matrix", "parse_params"),
        representation: ("space_character", "decompose_character", "project_vector",
                         "isotypic_projector"),
        ballots: ("build_ballot_space", "action_space"),
        cyclic_orders: ("enumerate_orders", "transposition_distance", "classify_pair",
                        "_distance_matrix"),
        _linalg: ("nullspace", "rref", "solve_in_span", "mat_vec", "mat_mul"),
    }
    for module, names in wrapped.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for fn in names:
            tracer.patch(module, fn, "scoring.rule" if fn == "named_rule" else f"{layer}.{fn}")
    for fn in ("transposition_distance", "classify_pair"):
        tracer.patch(scoring, fn, f"cyclic_orders.{fn}", record=False)
    tracer.patch(ballots.BallotSpace, "act_index", "ballots.act_index", record=False)
    tracer.patch(representation, "cycle_type", "symmetric_group.cycle_type", record=False)
    tracer.patch(representation, "irreducible_character",
                 "symmetric_group.irreducible_character", record=False)


def run_cli(spans_file: str, command_id: str, argv: list[str]) -> int:
    from tracer import Tracer

    import cyclevote.cli as cli

    tracer = Tracer()
    install_cli(tracer)
    tracer.op = command_id
    with tracer.span("cli.main"):
        rc = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_file, {"command": command_id, "rc": rc,
                             "self_s": tracer.self_by_module()})
    return rc


# -- cold probes ---------------------------------------------------------------------

def probe(name: str, seed: int) -> dict:
    """Time one first call in a fresh interpreter; the inputs are built untimed."""
    from cyclevote import ballots, cyclic_orders, scoring

    clock = time.perf_counter
    if name in ("td5", "td7"):
        n = int(name[2])
        x, y = (cyclic_orders.parse_order(w) for w in inputs.order_pair(seed, "probe", n))
        call = lambda: cyclic_orders.transposition_distance(x, y)  # noqa: E731
    elif name == "enum7":
        call = lambda: cyclic_orders.enumerate_orders(7)  # noqa: E731
    elif name == "orbit_count":
        space = ballots.build_ballot_space("cyclic", 5, "paper")
        call = lambda: scoring.orbit_count(space)  # noqa: E731
    elif name.startswith("rule."):
        family = name.split(".", 1)[1]
        params: list = []
        for i in range(len(inputs.SWEEP_FAMILIES)):
            spec = inputs.sweep_op(seed, i)
            if spec["family"] == family:
                params = spec["params"]
        call = lambda: scoring.rule(family, *params)  # noqa: E731
    else:
        raise SystemExit(f"unknown probe {name!r}")
    t0 = clock()
    call()
    return {"ms": (clock() - t0) * 1000}


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup":
        from workloads import WORKLOADS

        WORKLOADS[argv[1]](int(argv[2])).setup()
        print("READY", flush=True)
        return 0
    if mode == "loop":
        return run_loop(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    if mode == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    if mode == "probe":
        _print_json(probe(argv[1], int(argv[2])))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
