"""cyclevote benchmark: three workloads, six end-to-end metrics, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from anywhere inside a checkout; it finds the library at ../src.
With --trace 0 it measures the workload untraced for S seconds and prints
the end-to-end metrics.  With --trace 1 it prints the per-layer metrics: the
named workload runs S/2 seconds untraced and S/2 traced (the difference is
the tracing overhead), every workload runs one traced round twice (the
layers of the other two come from these, and their exact counts must
repeat), and cold first calls are timed in fresh interpreters.  The last
line of stdout is the result object; the line before it holds the details
(environment, sample counts, tail percentile, failure counts, errors).
Spans and the full report go to .bench_out/ in the checkout.  --smoke runs
every workload once at minimal size, traced and untraced, and checks the
result schema and metric names against BENCHMARK.json.

Any failed output check makes the run exit 1; a broken checkout exits 2.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKER = str(BENCH / "worker.py")
WORKLOADS = ("cli_cold", "sweep_warm", "group_sums")
#: Fresh set-up samples per end-to-end run, half before the timed loop and half
#: after it, so their median spans the run rather than one moment of it.
SETUP_REPS = 10
IMPORT_REPS = 5
TAIL_BEYOND = 10
#: cli_cold runs at least this many passes.  The two slowest commands then give
#: at least 12 samples, so the tail (the 11th-largest latency) always falls in
#: their group, whatever the pass count.
MIN_PASSES = 6
ALL_FAMILIES = ("generic4", "rolo_generic", "rolo_x1", "rolo21", "trad21",
                "generic5", "distance5", "adjusted_distance5")
PROBES = ("td5", "td7", "enum7", "orbit_count") + tuple(f"rule.{f}" for f in ALL_FAMILIES)


class BenchError(Exception):
    """The benchmark itself could not run (broken checkout, crashed child)."""


# -- child processes -----------------------------------------------------------

class Child:
    def __init__(self, wall, ready_s, out, err, rc, maxrss_kb):
        self.wall, self.ready_s, self.out, self.err = wall, ready_s, out, err
        self.rc, self.maxrss_kb = rc, maxrss_kb


def run_child(cmd: list[str], env: dict, ready: bool = False) -> Child:
    """Run one child to completion; time it from spawn to reaping.

    With ready, also time spawn until the child's first stdout line.
    stderr goes to a temporary file so neither pipe can fill and block.
    """
    with tempfile.TemporaryFile(dir=OUT) as errfile:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=errfile)
        ready_s = None
        first = b""
        if ready:
            first = p.stdout.readline()
            ready_s = time.perf_counter() - t0
        out = first + p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        errfile.seek(0)
        err = errfile.read().decode(errors="replace")
    if ready and first.strip() != b"READY":
        ready_s = None
    return Child(wall, ready_s, out.decode(errors="replace"), err, p.returncode, usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CYCLEVOTE_CACHE_DIR", None)  # a stale cache turns cold runs warm
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_1m": load1}


# -- measurement ----------------------------------------------------------------

class Context:
    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.env = child_env()
        self.py = sys.executable
        self.run_dir = Path(tempfile.mkdtemp(prefix=f"run-{seed}-", dir=OUT))
        self.commands = inputs.cli_commands(seed, str(self.run_dir))
        (OUT / "spans").mkdir(exist_ok=True)
        self.spans_prefix = f"{workload}-{seed}"

    def spans_file(self, tag: str) -> Path:
        """Where the spans of one traced measurement are kept after the run."""
        return OUT / "spans" / f"{self.spans_prefix}-{tag}.json"


def setup_samples(ctx: Context, cmd: list[str], k: int) -> list[float]:
    """Seconds from spawning cmd until it prints READY, k fresh interpreters."""
    samples = []
    for _ in range(k):
        c = run_child(cmd, ctx.env, ready=True)
        if c.rc or c.ready_s is None:
            raise BenchError(f"set-up failed: {c.err.strip()[-2000:]}")
        samples.append(c.ready_s)
    return samples


def measure_cli(ctx: Context, seconds: float, traced: bool, tag: str, setup: bool,
                min_passes: int) -> dict:
    """cli_cold: whole passes of the command list, one fresh interpreter per op."""
    setup_cmd = [ctx.py, "-c", "import cyclevote.cli; print('READY', flush=True)"]
    setup_s = setup_samples(ctx, setup_cmd, SETUP_REPS // 2 if setup else 0)
    passes: list[dict[str, Child]] = []
    docs: list[dict[str, dict]] = []
    start = time.perf_counter()
    while not passes or (seconds > 0 and (time.perf_counter() - start < seconds
                                          or len(passes) < min_passes)):
        ran, traced_docs = {}, {}
        for cid, argv in ctx.commands:
            if traced:
                spans = ctx.run_dir / f"{tag}-pass{len(passes)}-{cid}.json"
                ran[cid] = run_child([ctx.py, WORKER, "cli", str(spans), cid, *argv], ctx.env)
                if spans.exists():
                    traced_docs[cid] = json.loads(spans.read_text())
                    spans.unlink()
            else:
                ran[cid] = run_child([ctx.py, "-m", "cyclevote.cli", *argv], ctx.env)
        passes.append(ran)
        docs.append(traced_docs)
    elapsed = time.perf_counter() - start
    setup_s += setup_samples(ctx, setup_cmd, SETUP_REPS - len(setup_s) if setup else 0)

    commands = dict(ctx.commands)
    outputs = {cid: c.out for cid, c in passes[0].items()}
    failed, errors = set(), []
    try:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from cyclevote import scoring
        problems = checks.check_cli_outputs(outputs, commands, scoring)
    except Exception as exc:  # a crashing check is a failed check
        problems = [f"{cid}: output check raised {exc!r}" for cid in commands]
    bad = {msg.split(":", 1)[0] for msg in problems}
    errors += problems
    for k, ran in enumerate(passes):
        for cid, c in ran.items():
            if c.rc != 0 or c.err:
                errors.append(f"pass {k} {cid}: exit {c.rc}, stderr {c.err.strip()[:200]!r}")
                failed.add((k, cid))
            elif c.out != outputs[cid]:
                errors.append(f"pass {k} {cid}: stdout differs from pass 0")
                failed.add((k, cid))
            elif cid in bad:
                failed.add((k, cid))
    result = {
        "setup_s": setup_s,
        "latencies_s": [c.wall for ran in passes for c in ran.values()],
        "round_len": len(ctx.commands),
        "elapsed_s": elapsed,
        "attempted": sum(len(ran) for ran in passes),
        "failed": len(failed),
        "errors": errors[:20],
        "peak_rss_kb": max(c.maxrss_kb for ran in passes for c in ran.values()),
        "outputs": outputs,
        "passes": len(passes),
    }
    if traced:
        spans_file = ctx.spans_file(tag)
        spans_file.write_text(json.dumps({"workload": "cli_cold", "passes": docs}))
        result["spans_file"] = str(spans_file)
        result["trace"] = docs
        result["counts"] = {
            f"{cid}.{name}.calls": st["calls"]
            for cid, doc in sorted(docs[0].items()) for name, st in doc["stats"].items()
        }
    return result


def measure_inproc(ctx: Context, workload: str, seconds: float, traced: bool, tag: str,
                   setup: bool) -> dict:
    """sweep_warm / group_sums: one working process plus fresh set-up samples."""
    setup_cmd = [ctx.py, WORKER, "setup", workload, str(ctx.seed)]
    setup_s = setup_samples(ctx, setup_cmd, SETUP_REPS // 2 - 1 if setup else 0)
    spans = ctx.spans_file(tag)
    c = run_child([ctx.py, WORKER, "loop", workload, str(ctx.seed), str(seconds),
                   "1" if traced else "0", str(spans)], ctx.env, ready=True)
    if c.rc or c.ready_s is None:
        raise BenchError(f"{workload} worker failed: {c.err.strip()[-2000:]}")
    result = json.loads(c.out.splitlines()[-1])
    if setup:
        setup_s.append(c.ready_s)  # the working process is a set-up sample too
        setup_s += setup_samples(ctx, setup_cmd, SETUP_REPS - len(setup_s))
    result["setup_s"] = setup_s
    result["peak_rss_kb"] = c.maxrss_kb
    result["spans_file"] = str(spans) if traced else None
    return result


def measure(ctx: Context, workload: str, seconds: float, traced: bool, tag: str,
            setup: bool = False) -> dict:
    """One measurement; with setup it is the end-to-end one, set-up samples included."""
    if workload == "cli_cold":
        return measure_cli(ctx, seconds, traced, tag, setup, MIN_PASSES if setup else 1)
    return measure_inproc(ctx, workload, seconds, traced, tag, setup)


# -- end-to-end metrics -----------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and sample count of the highest percentile with ten beyond."""
    lat = sorted(latencies)
    idx = max(0, len(lat) - TAIL_BEYOND - 1)
    return lat[idx], 100.0 * (idx + 1) / len(lat), len(lat) - idx - 1


def round_rates(latencies: list[float], round_len: int) -> list[float]:
    """Ops per second of each whole round, from the op latencies it summed."""
    return [round_len / sum(latencies[k:k + round_len])
            for k in range(0, len(latencies) - round_len + 1, round_len)]


def speed(m: dict) -> dict:
    """Throughput and median latency of one measurement."""
    lat = m["latencies_s"]
    return {
        # the median round resists the bursts of a shared machine better than
        # the overall mean, which the details keep as ops_per_s_overall
        "ops_per_s": statistics.median(round_rates(lat, m["round_len"])),
        "op_ms.p50": statistics.median(lat) * 1000,
    }


def end_to_end(m: dict) -> tuple[dict, dict]:
    lat = m["latencies_s"]
    tail_s, tail_pct, beyond = tail(lat)
    sp = speed(m)
    metrics = {
        "setup_s": (statistics.median(m["setup_s"]), "s"),
        "ops_per_s": (sp["ops_per_s"], "1/s"),
        "op_ms.p50": (sp["op_ms.p50"], "ms"),
        "op_ms.tail": (tail_s * 1000, "ms"),
        "success_ratio": ((m["attempted"] - m["failed"]) / m["attempted"], "ratio"),
        "peak_rss_mb": (m["peak_rss_kb"] / 1024, "MB"),
    }
    details = {
        "samples": len(lat),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": beyond,
        "fail_ratio": m["failed"] / m["attempted"],
        "failed": m["failed"],
        "attempted": m["attempted"],
        "setup_samples": len(m["setup_s"]),
        "rounds": len(lat) // m["round_len"],
        "elapsed_s": m["elapsed_s"],
        "ops_per_s_overall": m["attempted"] / m["elapsed_s"],
    }
    return metrics, details


# -- per-layer metrics --------------------------------------------------------------

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_ms": "ms"}
    units.update({f"cli.{cid}.ms": "ms" for cid in inputs.CLI_IDS})
    units.update({
        "cyclic_orders.transposition_distance.cold_ms.n5": "ms",
        "cyclic_orders.transposition_distance.cold_ms.n7": "ms",
        "cyclic_orders.classify_pair.ms": "ms",
        "cyclic_orders.classify_pair.calls": "count",
        "cyclic_orders.enumerate_orders.cold_ms.n7": "ms",
    })
    units.update({f"scoring.rule.cold_ms.{f}": "ms" for f in ALL_FAMILIES})
    units["scoring.orbit_count.cold_ms"] = "ms"
    units.update({f"{mod}.self_ms_per_op.cli_cold": "ms"
                  for mod in ("cli", "cyclic_orders", "scoring")})
    units["cyclic_orders.transposition_distance.warm_us"] = "us"
    units.update({f"scoring.rule.warm_ms.{f}": "ms" for f, _, _ in inputs.SWEEP_FAMILIES})
    units["analysis.tally.us"] = "us"
    units.update({f"analysis.{fn}.ms": "ms" for fn in (
        "kernel_basis", "effective_basis", "scaling_report", "decompose_profile",
        "masking_profile")})
    units["analysis.masking_profile.infeasible_ratio"] = "ratio"
    for fn in ("solve_in_span", "rref", "nullspace", "mat_vec"):
        units[f"_linalg.{fn}.calls_per_op"] = "count"
        units[f"_linalg.{fn}.ms_per_op"] = "ms"
    units.update({f"{mod}.self_ms_per_op.sweep_warm": "ms" for mod in ("analysis", "_linalg")})
    units.update({
        "ballots.act_index.us": "us",
        "ballots.act_index.calls_per_op": "count",
        "ballots.build_ballot_space.ms": "ms",
        "symmetric_group.all_permutations.ms.n6": "ms",
        "symmetric_group.irreducible_character.calls_per_op": "count",
    })
    units.update({f"representation.project_vector.ms.{lam_name(lam)}": "ms"
                  for lam in GROUP_PARTITIONS})
    units.update({
        "representation.space_character.ms": "ms",
        "representation.decompose_character.ms": "ms",
        "representation.column_moves": "count",
        "representation.nonzero_weight_share": "ratio",
    })
    units.update({f"{mod}.self_ms_per_op.group_sums": "ms"
                  for mod in ("representation", "ballots", "symmetric_group")})
    units["trace.overhead.ops_per_s"] = "1/s"
    units["trace.overhead.op_ms.p50"] = "ms"
    return units


#: Partitions of 6 with non-zero multiplicity in cyclic n=6 or ROLO n=6.
GROUP_PARTITIONS = ("6", "5+1", "4+2", "4+1+1", "3+3", "3+2+1", "3+1+1+1",
                    "2+2+2", "2+2+1+1", "2+1+1+1+1")


def lam_name(lam: str) -> str:
    return "p" + lam.replace("+", "_")


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000


def cli_layers(m: dict) -> dict:
    docs = m["trace"]
    out = {}
    for cid in inputs.CLI_IDS:
        out[f"cli.{cid}.ms"] = _median_ms(
            [s[3] - s[2] for d in docs for s in d[cid]["spans"] if s[1] == "cli.main"])
    adjusted = [d["matrix_adjusted_distance5"]["stats"]["cyclic_orders.classify_pair"]
                for d in docs]
    out["cyclic_orders.classify_pair.ms"] = _median_ms([st["total_s"] for st in adjusted])
    out["cyclic_orders.classify_pair.calls"] = adjusted[0]["calls"]
    every = [doc for d in docs for doc in d.values()]
    for mod in ("cli", "cyclic_orders", "scoring"):
        out[f"{mod}.self_ms_per_op.cli_cold"] = \
            1000 * sum(doc["self_s"].get(mod, 0.0) for doc in every) / len(every)
    return out


def sweep_layers(m: dict) -> dict:
    t = m["trace"]
    stats, by_label, ops = t["stats"], t["by_label"], t["ops"]
    out = {}
    calls, total, _ = stats["cyclic_orders.transposition_distance"]
    out["cyclic_orders.transposition_distance.warm_us"] = 1e6 * total / calls
    for family, _, _ in inputs.SWEEP_FAMILIES:
        out[f"scoring.rule.warm_ms.{family}"] = _median_ms(by_label["scoring.rule"][family])
    calls, total, _ = stats["analysis.tally"]
    out["analysis.tally.us"] = 1e6 * total / calls
    for fn in ("kernel_basis", "effective_basis", "scaling_report", "decompose_profile",
               "masking_profile"):
        calls, total, _ = stats[f"analysis.{fn}"]
        out[f"analysis.{fn}.ms"] = 1000 * total / calls
    counts = m["counts"]
    out["analysis.masking_profile.infeasible_ratio"] = \
        counts["masking.infeasible"] / counts["masking.attempts"]
    for fn in ("solve_in_span", "rref", "nullspace", "mat_vec"):
        calls, total, _ = stats[f"_linalg.{fn}"]
        out[f"_linalg.{fn}.calls_per_op"] = calls / ops
        out[f"_linalg.{fn}.ms_per_op"] = 1000 * total / ops
    for mod in ("analysis", "_linalg"):
        out[f"{mod}.self_ms_per_op.sweep_warm"] = 1000 * t["self_s"][mod] / ops
    return out


def group_layers(m: dict) -> dict:
    t = m["trace"]
    stats, setup, by_label, ops = t["stats"], t["setup_stats"], t["by_label"], t["ops"]
    out = {}
    calls, total, _ = stats["ballots.act_index"]
    out["ballots.act_index.us"] = 1e6 * total / calls
    out["ballots.act_index.calls_per_op"] = calls / ops
    out["ballots.build_ballot_space.ms"] = 1000 * setup["ballots.build_ballot_space"][1]
    out["symmetric_group.all_permutations.ms.n6"] = 1000 * t["all_permutations6_s"]
    out["symmetric_group.irreducible_character.calls_per_op"] = \
        stats["symmetric_group.irreducible_character"][0] / ops
    for lam in GROUP_PARTITIONS:
        out[f"representation.project_vector.ms.{lam_name(lam)}"] = \
            _median_ms(by_label["representation.project_vector"][lam])
    for fn in ("space_character", "decompose_character"):
        out[f"representation.{fn}.ms"] = 1000 * setup[f"representation.{fn}"][1]
    out["representation.column_moves"] = m["counts"]["column_moves"]
    out["representation.nonzero_weight_share"] = m["counts"]["nonzero_weight_share"]
    for mod in ("representation", "ballots", "symmetric_group"):
        out[f"{mod}.self_ms_per_op.group_sums"] = 1000 * t["self_s"][mod] / ops
    return out


LAYERS = {"cli_cold": cli_layers, "sweep_warm": sweep_layers, "group_sums": group_layers}


def run_probes(ctx: Context) -> dict:
    """Cold first calls, each in its own fresh interpreter, and the import cost."""
    out = {}
    for name in PROBES:
        c = run_child([ctx.py, WORKER, "probe", name, str(ctx.seed)], ctx.env)
        if c.rc:
            raise BenchError(f"probe {name} failed: {c.err.strip()[-2000:]}")
        out[name] = json.loads(c.out.splitlines()[-1])["ms"]
    bare, imported = [], []
    for _ in range(IMPORT_REPS):
        bare.append(run_child([ctx.py, "-c", "pass"], ctx.env).wall)
        imported.append(run_child([ctx.py, "-c", "import cyclevote.cli"], ctx.env).wall)
    metrics = {
        "cli.import_ms": _median_ms(imported) - _median_ms(bare),
        "cyclic_orders.transposition_distance.cold_ms.n5": out["td5"],
        "cyclic_orders.transposition_distance.cold_ms.n7": out["td7"],
        "cyclic_orders.enumerate_orders.cold_ms.n7": out["enum7"],
        "scoring.orbit_count.cold_ms": out["orbit_count"],
    }
    metrics.update({f"scoring.rule.cold_ms.{f}": out[f"rule.{f}"] for f in ALL_FAMILIES})
    return metrics


def compare_counts(workload: str, a: dict, b: dict) -> list[str]:
    """Exact counts of two runs of the same ops must agree; a difference is a bug here."""
    return [
        f"benchmark bug: {workload} count {key} differs between two runs: "
        f"{a.get(key)!r} vs {b.get(key)!r}"
        for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)
    ]


# -- entry points ---------------------------------------------------------------------

def run_traced(ctx: Context, workload: str, seconds: float, details: dict) -> tuple:
    """The per-layer measurement; returns (metrics, attempted, failed, errors)."""
    half = seconds / 2 if seconds > 0 else 0
    plain = measure(ctx, workload, half, traced=False, tag="plain")
    traced = measure(ctx, workload, half, traced=True, tag="traced")
    runs = [plain, traced]
    sources = {workload: traced}
    errors = plain["errors"] + traced["errors"]
    for w in WORKLOADS:
        first, second = (measure(ctx, w, 0, traced=True, tag=f"{w}-repeat{k}") for k in (0, 1))
        runs += [first, second]
        sources.setdefault(w, first)
        errors += first["errors"] + second["errors"]
        errors += compare_counts(w, first["counts"], second["counts"])
    cli_outputs = [r["outputs"] for r in runs if "outputs" in r]
    if any(o != cli_outputs[0] for o in cli_outputs):
        errors.append("cli stdout differs between traced and untraced runs")
    values = run_probes(ctx)
    try:
        for w, layers in LAYERS.items():
            values.update(layers(sources[w]))
    except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:
        raise BenchError(f"per-layer metrics missing ({exc!r}); errors: {errors[:5]}") from exc
    untraced, with_trace = speed(plain), speed(traced)
    for name in ("ops_per_s", "op_ms.p50"):
        values[f"trace.overhead.{name}"] = with_trace[name] - untraced[name]
    details["overhead_base"] = {"untraced": untraced, "traced": with_trace}
    details["spans"] = [str(Path(r["spans_file"]).relative_to(ROOT)) for r in runs
                        if r.get("spans_file")]
    details["layer_sources"] = {w: "full run" if w == workload else "one traced round"
                                for w in WORKLOADS}
    metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    return (metrics, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
            errors)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    ctx = Context(workload, seed)
    try:
        details: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                         "trace": int(trace), "environment": environment()}
        if trace:
            metrics, attempted, failed, errors = run_traced(ctx, workload, seconds, details)
        else:
            m = measure(ctx, workload, seconds, traced=False, tag="main", setup=True)
            metrics, details["end_to_end"] = end_to_end(m)
            attempted, failed, errors = m["attempted"], m["failed"], m["errors"]
        details["errors"] = errors[:40]
        result = {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, details
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)


def smoke() -> int:
    """Each workload once at minimal size, both modes; check schema and names.

    Prints every end-to-end metric with its unit, and the failure count, per workload.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = f"{w} trace={trace}"
            res, found = smoke_one(w, trace, want[trace])
            print(f"{tag}: {'ok' if not found else 'FAILED'}", flush=True)
            if trace == 0 and res:
                print(f"  fail_ratio {res['failed']}/{res['attempted']}")
                for name, v in res["metrics"].items():
                    print(f"  {name} {v['value']:.6g} {v['unit']}")
            problems += [f"{tag}: {msg}" for msg in found]
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def smoke_one(workload: str, trace: int, want: dict[str, str]) -> tuple[dict | None, list[str]]:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True)
    try:
        res = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, [f"no result line (exit {proc.returncode}): {proc.stderr.strip()[-500:]}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if proc.returncode != 0 or res.get("correct") is not True or res.get("failed"):
        problems.append(f"exit {proc.returncode}, correct={res.get('correct')}")
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metric names or units differ: {sorted(set(got.items()) ^ set(want.items()))}")
    bad = [k for k, v in res.get("metrics", {}).items()
           if not isinstance(v.get("value"), (int, float))]
    if bad:
        problems.append(f"non-numeric values {bad}")
    return res, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cyclevote" / "cli.py").is_file():
        print(f"error: no cyclevote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    # fresh bytecode for the package, so import time never rides on a stale cache
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-f", str(ROOT / "src" / "cyclevote"),
         str(BENCH)],
        env=env, capture_output=True, text=True)
    if compiled.returncode:
        print(f"error: compileall failed: {compiled.stdout}{compiled.stderr}", file=sys.stderr)
        return 2
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"result": result, "details": details}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
