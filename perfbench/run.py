#!/usr/bin/env python3
"""The nahsp benchmark: builds the repo in Release, runs one workload,
checks every output, and prints the metrics as one JSON line.

    python3 perfbench/run.py --workload dense_qft --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Run it from the root of a source tree. The first run configures and
builds into .bench_build/ (the repo's own CMake build, Release, without
tests, then the runner package in perfbench/); later runs reuse it.
Run records, spans and report digests go to .bench_out/.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
runs the separate traced pass and prints every per-layer metric. The
last stdout line is {"correct", "attempted", "failed", "metrics"}. Any
failed, unverified, rejected or timed-out operation, or a report digest
that differs from an earlier run of the same inputs or between pool
widths, makes the run incorrect and the exit code 1. fail_ratio, which
is 0 on a correct run, is `failed` over `attempted` and a per-layer
metric.

Times are wall-clock times with the hypervisor's steal time taken out
(busy_share), because on a shared virtual machine steal varies from
minute to minute by more than any bound a benchmark could hold. On
bare metal they are plain wall-clock times. Each run prints the steal
share it removed in its `notes` line. setup_s is the CPU time of a
fresh process doing the set-up, median of SETUP_REPS.

Seeds 1-120 were used while the benchmark was built; seed 9001 was not
and is kept for validating later claims.

--selfcheck runs each workload once at small size, traced and untraced,
and checks the printed metric names and units against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing outside .bench_build/.bench_out

import serve_client  # noqa: E402
import workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
SETUP_REPS = 7
TAIL_ROUNDS = 4  # rounds of a fixed instance set whose solves the tail is judged on
# Offered rate of the traced serve probe on the closed workloads, about
# half of what the daemon sustains on their specs.
PROBE_RATE = {"dense_qft": 1.0, "sparse_span": 0.5, "batch_small": 100.0}

# What this program prints, by pass; --selfcheck holds BENCHMARK.json to it.
E2E_UNITS = {"solves_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
             "light_latency_p50_ms": "ms", "light_latency_p99_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "hsp.build_scenario_ms": "ms", "hsp.solve_ms": "ms", "hsp.solve_self_ms": "ms",
    "hsp.verify_ms": "ms", "hsp.batch_cpu_per_wall": "ratio", "hsp.width1_speedup": "x",
    "bbox.quantum_queries": "count", "bbox.classical_queries": "count",
    "bbox.group_ops": "count", "bbox.sim_basis_evals": "count", "bbox.label_calls": "count",
    "bbox.label_ms": "ms", "qsim.mixed_radix.build_ms": "ms", "qsim.qubit.build_ms": "ms",
    "qsim.sparse.build_ms": "ms", "qsim.draw_us": "us", "linalg.enumerate_ms": "ms",
    "linalg.congruence_us": "us", "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms", "serve.queue_depth_max": "count", "serve.solve_ms": "ms",
    "serve.cache_hit_ratio": "ratio", "serve.ping_rtt_ms": "ms", "serve.report_us": "us",
    "serve.generator_late_ms": "ms", "trace.overhead_pct": "%", "fail_ratio": "ratio"}


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, failed build)."""


# ------------------------------------------------------------------ build

def run_logged(cmd, log, tmp):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                           env=dict(os.environ, TMPDIR=str(tmp)))
    if r.returncode != 0:
        raise SetupError(f"command failed ({r.returncode}): {' '.join(cmd)}; see {log}")


def build(root, out):
    """Configures (once) and builds nahsp and the runner in Release."""
    bdir = root / ".bench_build"
    nahsp_dir, runner_dir = bdir / "nahsp", bdir / "perfbench"
    log = out / "build.log"
    tmp = bdir / "tmp"  # the compiler's temporary files stay in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    if not (nahsp_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(root), "-B", str(nahsp_dir),
                    "-DCMAKE_BUILD_TYPE=Release", "-DNAHSP_BUILD_TESTS=OFF"], log, tmp)
    run_logged(["cmake", "--build", str(nahsp_dir), "-j", str(NPROC)], log, tmp)
    if not (runner_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(HERE), "-B", str(runner_dir),
                    "-DCMAKE_BUILD_TYPE=Release", f"-DNAHSP_BUILD_DIR={nahsp_dir}"], log, tmp)
    run_logged(["cmake", "--build", str(runner_dir), "-j", str(NPROC)], log, tmp)
    cache = (nahsp_dir / "CMakeCache.txt").read_text()
    build_type = next((l.split("=", 1)[1] for l in cache.splitlines()
                       if l.startswith("CMAKE_BUILD_TYPE:")), "")
    runner = runner_dir / "perfbench_runner"
    denv = json.loads(subprocess.run([str(runner), "env"], check=True,
                                     capture_output=True, text=True).stdout)
    if build_type != "Release" or denv["build_type"] != "Release" or not denv["ndebug"]:
        raise SetupError(f"refusing to record numbers from a non-Release build "
                         f"(nahsp: {build_type!r}, runner: {denv['build_type']!r})")
    return {"runner": str(runner), "nahsp": str(nahsp_dir / "src" / "cli" / "nahsp"),
            "compiler": denv["compiler"], "build_type": build_type}


def source_id(root):
    r = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode == 0:
        return r.stdout.strip()
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")) + [root / "CMakeLists.txt"]:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return "no-git:src-sha256-" + h.hexdigest()[:16]


# ---------------------------------------------------------------- metrics

def quantile(xs, p):
    xs = sorted(xs)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(xs, p, name, notes):
    """The p-quantile, or the highest quantile with at least ten samples
    beyond it (never below the median); the one used goes to `notes`."""
    n = len(xs)
    q = max(0.5, min(p, 1.0 - 10.0 / n)) if n else p
    notes[name] = f"p{q * 100:.2f} of {n} samples"
    return quantile(xs, q)


def latency_metrics(lat_ms, light_ms, notes):
    return {
        "latency_p50_ms": quantile(lat_ms, 0.5),
        "latency_p99_ms": tail(lat_ms, 0.99, "latency_p99_ms", notes),
        "light_latency_p50_ms": quantile(light_ms, 0.5),
        "light_latency_p99_ms": tail(light_ms, 0.99, "light_latency_p99_ms", notes),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted, failed, errors=()):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def fail(self, msg):
        """Marks one already-counted operation failed."""
        self.add(0, 1, [msg])


def inputs_id(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:12]


def check_digest(out, key, digest, tally):
    """The same inputs must give the same reports on every run. `key`
    names the workload, its seed and a hash of the generated inputs."""
    path = out / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    tally.attempted += 1
    if key in known and known[key] != digest:
        tally.fail(f"report digest for {key} changed: {known[key]} -> {digest}")
    known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


# --------------------------------------------------------------- workloads

def workload_inputs(name, seed, small):
    """(runner mode, qsim/linalg probe size, spec lines) of a workload."""
    if name == "dense_qft":
        base = workloads.DENSE_SMALL if small else workloads.DENSE
        return "closed", "dense", workloads.closed_rounds(base, workloads.DENSE_SMALL)
    if name == "sparse_span":
        base = workloads.SPARSE_SMALL if small else workloads.SPARSE
        return "closed", "sparse", workloads.closed_rounds(base, workloads.SPARSE_SMALL)
    return "batch", "small", workloads.batch_rounds(seed, 8, 100 if small else 2000)


def busy_share(cpu_s, steal_s):
    """The share of an interval's busy CPU time the machine really got.

    On a virtual machine the hypervisor can run other guests while ours
    has work (steal time). Steal accrues only to CPUs that have work, and
    the benchmark is the only thing working here, so a timed interval
    that used `cpu_s` of process CPU time and lost `steal_s` would have
    taken its wall time times this share on an uncontended host. On
    bare metal steal is 0 and the share 1.
    """
    return cpu_s / (cpu_s + steal_s) if steal_s > 0 and cpu_s > 0 else 1.0


def children_cpu_seconds():
    """User plus system CPU time of all waited-for child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def e2e_metrics(mode, lines, d, notes):
    """End-to-end metrics of an untraced run of the runner.

    Wall times are scaled by busy_share() of their interval: each solve
    on `closed`, each round for throughput. Batch items arrive as their
    CPU time on their pool thread, which steal does not inflate.
    Throughput is round size over the median round time, and latency
    quantiles are medians over rounds or instances, so that a few
    seconds of a slow host move them little.
    """
    rounds = [l for l in lines if not l.startswith("w ")]
    size = sum(1 for l in rounds if l.startswith("0 "))
    samples = [(lat * 1e3 * busy_share(cpu, steal), light, rounds[k % len(rounds)].split(" ", 2)[2])
               for k, (lat, light, _, cpu, steal) in enumerate(d["samples"])]
    if mode == "batch":
        # Each round is thousands of distinct instances: the quantiles of
        # every round, then their median over the rounds.
        by_round = []
        for i in range(0, len(samples), size):
            chunk = samples[i:i + size]
            by_round.append(latency_metrics([s[0] for s in chunk],
                                            [s[0] for s in chunk if s[1]], notes))
        metrics = {k: quantile([m[k] for m in by_round], 0.5) for k in by_round[0]}
        for k in ("latency_p99_ms", "light_latency_p99_ms"):
            notes[k] += f" per round, median of {len(by_round)} rounds"
    else:
        # Every round repeats one instance set, so the latencies form one
        # tight cluster per instance and their pooled median would sit in
        # the gap between two clusters: p50 is the median of the
        # per-instance medians.
        per_inst = {}
        for lat, light, spec in samples:
            per_inst.setdefault((spec, light), []).append(lat)
        meds = {key: quantile(v, 0.5) for key, v in per_inst.items()}
        metrics = {"latency_p50_ms": quantile(list(meds.values()), 0.5),
                   "light_latency_p50_ms": quantile([m for (_, li), m in meds.items() if li], 0.5)}
        # The tail is judged on the first TAIL_ROUNDS rounds, so which
        # percentile it reports does not depend on how many rounds the
        # host let a run finish. With four instances that is 16 solves:
        # no percentile above the median has ten beyond it.
        window = samples[:TAIL_ROUNDS * size]
        for name, light_only in (("latency_p99_ms", False), ("light_latency_p99_ms", True)):
            pooled = [s[0] for s in window if s[1] or not light_only]
            metrics[name] = tail(pooled, 0.99, name, notes)
            if notes[name].startswith("p50.00"):
                metrics[name] = metrics[name.replace("p99", "p50")]
                notes[name] += " (the p50 metric)"
    walls = [wall * busy_share(cpu, steal) for wall, cpu, steal in d["rounds"]]
    metrics["solves_per_s"] = size / quantile(walls, 0.5)
    cpu, steal = (sum(r[i] for r in d["rounds"]) for i in (1, 2))
    notes["rounds"] = len(walls)
    notes["steal_pct"] = round(100.0 * (1.0 - busy_share(cpu, steal)), 2)
    return metrics


def runner_json(cmd):
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise RuntimeError(f"runner failed ({r.returncode}): {r.stderr.strip()[-400:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_pass(name, args, tools, out, tally, notes):
    mode, probe, lines = workload_inputs(name, args.seed, args.small)
    spec_file = out / f"{name}-{args.seed}.scn"
    spec_file.write_text("\n".join(lines) + "\n")
    base = [tools["runner"], "run", "--specs", str(spec_file), "--mode", mode,
            "--threads", str(NPROC), "--seconds", str(args.seconds)]
    if not args.trace:
        # Set-up is the CPU time of a fresh process that builds round 0
        # and solves the warm-up lines: a few to a hundred milliseconds,
        # where steal, counted in 10 ms ticks, cannot be taken out of
        # wall time.
        setup = []
        for _ in range(SETUP_REPS):
            cpu0 = children_cpu_seconds()
            subprocess.run([tools["runner"], "setup", "--specs", str(spec_file),
                            "--threads", str(NPROC)], check=True, timeout=120)
            setup.append(children_cpu_seconds() - cpu0)
        samples_file = out / f"samples-{name}-{args.seed}.txt"
        d = runner_json(base + ["--trace", "0", "--samples", str(samples_file)])
        with open(samples_file) as f:
            d["samples"] = [[float(x) for x in line.split()] for line in f]
        tally.add(d["attempted"], d["failed"], d["errors"])
        check_digest(out, f"{name}:{args.seed}:{inputs_id(lines)}", d["digest0"], tally)
        metrics = e2e_metrics(mode, lines, d, notes)
        metrics["peak_rss_mb"] = d["peak_rss_mb"]
        metrics["setup_s"] = quantile(setup, 0.5)
        return metrics
    spans = out / f"spans-{name}-{args.seed}.jsonl"
    d = runner_json(base + ["--trace", "1", "--probe", probe, "--spans", str(spans)])
    tally.add(d["attempted"], d["failed"], d["errors"])
    check_digest(out, f"{name}:{args.seed}:{inputs_id(lines)}", d["digest0"], tally)
    notes["self_ms"] = d["self_ms"]
    metrics = dict(d["layers"])
    # The serve layer, probed with round 0's specs, each asked twice.
    round0 = [l.split(" ", 2) for l in lines if l.startswith("0 ")][:100]
    schedule = [(i / PROBE_RATE[name], cls, spec)
                for i, (_, cls, spec) in enumerate(round0 + round0)]
    metrics.update(serve_layer(tools, out, schedule, tally, notes,
                               f"{name}-serve:{args.seed}:{inputs_id(schedule)}"))
    return metrics


def strip_report(report):
    return {k: v for k, v in report.items() if k not in ("seconds", "threads")}


def serve_layer(tools, out, schedule, tally, notes, tag):
    """The serve-layer metrics of one open-loop `schedule` against a fresh
    daemon. Every response must verify; its report, minus wall clock and
    width, goes into a digest checked across runs like the runner's."""
    daemon = serve_client.Daemon(tools["nahsp"], str(out), NPROC)
    try:
        serve_client.warm_up(daemon)
        records, pings, depths = serve_client.run_schedule(daemon, schedule, NPROC)
        ctl = serve_client.Control(daemon)
        stats = ctl.call({"cmd": "stats"})[0]["stats"]
        ctl.close()
    finally:
        daemon.shutdown()

    h = hashlib.sha256()
    qwait, solve, late = [], [], []
    for i, r in enumerate(records):
        tally.attempted += 1
        resp = r["resp"]
        late.append((r["sent"] - r["due"]) * 1e3)
        if resp is None:
            tally.fail(f"request {i}: no response (timeout or dropped connection)")
            h.update(b"missing\n")
            continue
        if not resp.get("ok"):
            code = resp.get("error", {}).get("code", "?")
            tally.fail(f"request {i}: {code}: {schedule[i][2]}")
            h.update(f"error:{code}\n".encode())
            continue
        report = resp["report"]
        h.update(json.dumps(strip_report(report), sort_keys=True).encode() + b"\n")
        if not (report["success"] and report["verified"]):
            tally.fail(f"request {i}: not verified: {schedule[i][2]}")
        elif not resp["cached"]:
            solve.append(report["seconds"] * 1e3)
            qwait.append(max(0.0, (r["recv"] - r["sent"] - report["seconds"]) * 1e3))
    check_digest(out, tag, h.hexdigest(), tally)
    with open(out / f"spans-{tag.replace(':', '-')}.jsonl", "w") as f:
        for i, r in enumerate(records):
            f.write(json.dumps({"id": i, "name": "serve.request", "class": r["class"],
                                "due": r["due"], "sent": r["sent"], "recv": r["recv"],
                                "cached": (r["resp"] or {}).get("cached")}) + "\n")
    lookups = stats["cache"]["hits"] + stats["cache"]["misses"]
    return {
        "serve.queue_wait_p50_ms": quantile(qwait or [0.0], 0.5),
        "serve.queue_wait_p99_ms": tail(qwait or [0.0], 0.99, "serve.queue_wait_p99_ms", notes),
        "serve.queue_depth_max": max(depths, default=0),
        "serve.solve_ms": sum(solve) / len(solve) if solve else 0.0,
        "serve.cache_hit_ratio": stats["cache"]["hits"] / lookups if lookups else 0.0,
        "serve.ping_rtt_ms": quantile([p * 1e3 for p in pings], 0.5) if pings else 0.0,
        "serve.generator_late_ms": tail(late, 0.99, "serve.generator_late_ms", notes),
    }


# ------------------------------------------------------------------- main

def load_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_workload(args, tools, out):
    tally, notes = Tally(), {}
    try:
        metrics = run_pass(args.workload, args, tools, out, tally, notes)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        tally.add(1, 1, [f"{type(e).__name__}: {e}"])
        metrics = {}
    if args.trace:
        metrics["fail_ratio"] = tally.failed / max(1, tally.attempted)
    return tally, notes, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    try:
        if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
            raise SetupError(f"{root} is not a nahsp source tree (no CMakeLists.txt / src)")
        spec = load_spec()
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        tools = build(root, out)
    except (SetupError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(spec, tools, out)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}", file=sys.stderr)
        return 2
    args.small = False
    env = {"nproc": NPROC, "compiler": tools["compiler"], "build_type": tools["build_type"],
           "source": source_id(root), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    tally, notes, metrics = run_workload(args, tools, out)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {"correct": tally.failed == 0 and metrics.keys() == units.keys(),
              "attempted": max(1, tally.attempted), "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items() if name in metrics}}
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps({"env": env, "notes": notes, "errors": tally.errors[:20],
                            "result": result}) + "\n")
    print("env: " + json.dumps(env))
    print("notes: " + json.dumps(notes))
    for e in tally.errors[:10]:
        print("error: " + e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selfcheck(spec, tools, out):
    """Each workload once at small size, both passes: every run must be
    correct and print exactly the metrics, with the units, that
    BENCHMARK.json declares for its pass."""
    bad = 0
    for section, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            bad += 1
            print(f"FAIL BENCHMARK.json {section} differs from the printed metrics: "
                  f"{sorted(set(declared.items()) ^ set(units.items()))}")
    for w in spec["workloads"]:
        for trace, units in ((0, E2E_UNITS), (1, LAYER_UNITS)):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1.0,
                                      trace=trace, small=True)
            tally, _, metrics = run_workload(args, tools, out)
            missing, extra = units.keys() - metrics.keys(), metrics.keys() - units.keys()
            ok = tally.failed == 0 and not missing and not extra and all(
                isinstance(v, (int, float)) for v in metrics.values())
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={trace} "
                  f"attempted={tally.attempted} failed={tally.failed}"
                  + (f" missing={sorted(missing)}" if missing else "")
                  + (f" extra={sorted(extra)}" if extra else "")
                  + "".join(f"\n     {e}" for e in tally.errors[:5]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
