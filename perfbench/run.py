#!/usr/bin/env python3
"""The reproduction's benchmark: four workloads, measured end to end and
layer by layer.

    python3 perfbench/run.py --workload paper|contention|sweep|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds `repro` and the probe in
`perfbench/` (release, into $CARGO_TARGET_DIR, default `.bench_build`),
runs the workload for about S seconds with inputs made from the seed,
checks every output, prints each metric with its median, quartiles and
sample count, and prints one JSON result as its last line. With
`--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
measured untraced; with `--trace 1` it holds the per-layer metrics, from a
separate traced run. Scratch files (spans, store directories) go to
`.bench_out/`. See perfbench/README.md for what each metric means.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("paper", "contention", "sweep", "serve")

# `repro` start-ups timed before each batch iteration, so they spread over
# the whole run; setup_s is their median.
SETUPS_PER_ITERATION = 8

# The `repro` command line a user runs for each batch workload, before the
# seed. Its set-up ends when it reports its executor, just before the first
# simulation starts.
REPRO_ARGS = {
    "paper": ["--scale", "paper", "--jobs", "2", "--format", "json"],
    "contention": ["--scale", "paper", "--jobs", "2", "--format", "json",
                   "table10", "table11-13", "table14", "fec", "harq", "hidden-terminal"],
    "sweep": ["sweep", "--space", "oven-lhs", "--points", "2000", "--scale", "smoke",
              "--jobs", "2", "--format", "json"],
}

# Operations one batch iteration attempts (artifacts, or sweep points).
OPERATIONS = {"paper": 18, "contention": 6, "sweep": 2000}

# Consecutive seeds an artifact workload's run cycles through; the fidelity
# checks judge their mean, as `repro --validate` does by default.
SEEDS_PER_RUN = 3

# Iterations each seed of a run gets at least, so the output digest of
# every seed is compared with a second run of it.
RUNS_PER_SEED = 2

# Daemon restarts on the filled store per serve run (plus the final start).
SERVE_RESTARTS = 12

# Offered read rate whose latency read_p50_ms and read_p99_ms report.
READ_RATE = 4000.0

# Latency limit, ms, that max_read_qps holds read_p99_ms to.
READ_LIMIT_MS = 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "read_p50_ms": "ms",
    "miss_p50_ms": "ms",
}

# Per-layer counters read from the daemon's /metrics.
STORE_COUNTERS = ("l1_hits", "l2_hits", "misses", "evictions", "persist_errors")

# Every process this script starts, so a failure still stops them all.
CHILDREN = []


T0 = time.monotonic()


def log(message):
    print(f"[{time.monotonic() - T0:7.2f}s] {message}", file=sys.stderr, flush=True)


def spawn(args, **kwargs):
    proc = subprocess.Popen(args, **kwargs)
    CHILDREN.append(proc)
    return proc


def reap(proc, timeout=30.0):
    """Waits for proc and returns (exit status, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop_children():
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        CHILDREN.remove(proc)


def build(root):
    """Builds repro and the probe; returns their paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "wavelan-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    return os.path.join(target, "release", "repro"), os.path.join(target, "release", "perfbench")


def read_json_line(proc, what):
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"{what}: no output")
    return json.loads(line)


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


# ---------------------------------------------------------------- batch


def repro_setup(repro, workload, seed):
    """Starts `repro` on the workload and times it from spawn until it
    reports its executor, then stops it; returns the seconds."""
    args = [repro] + REPRO_ARGS[workload] + ["--seed", str(seed)]
    start = time.perf_counter()
    proc = spawn(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for line in proc.stderr:
        if line.startswith("[executor:"):
            setup_s = time.perf_counter() - start
            break
    else:
        reap(proc)
        raise RuntimeError(f"repro exited with {proc.returncode} before its executor was ready")
    proc.kill()
    reap(proc)
    proc.stderr.close()
    return setup_s


def batch_start(probe, root, workload, seed, tally):
    """Starts one batch process and waits until it is ready; returns it."""
    proc = spawn(
        [probe, "batch", "--workload", workload, "--seed", str(seed), "--root", root],
        stdout=subprocess.PIPE,
        text=True,
    )
    ready = read_json_line(proc, "batch set-up")
    if workload == "sweep":
        # The set-up's golden comparison: the nine oven-smoke points.
        tally.add(9, 0 if ready["setup_ok"] else 9, [ready["setup_problem"]] if not ready["setup_ok"] else [])
    return proc


def judge(probe, iterations):
    """Judges each fidelity check's mean across the run's seeds (the first
    iteration of each seed); returns {artifact: [why, ...]} of failures."""
    values, errors, artifact_of = {}, {}, {}
    seen = set()
    for it in iterations:
        if it["seed"] in seen:
            continue
        seen.add(it["seed"])
        for c in it["checks"]:
            artifact_of[c["id"]] = c["artifact"]
            if c["value"] is None:
                errors[c["id"]] = c["error"]
            else:
                values.setdefault(c["id"], []).append(c["value"])
    failures = {}
    for check, why in errors.items():
        failures.setdefault(artifact_of[check], []).append(f"{check}: {why}")
    lines = "".join(f"{c} {' '.join(repr(v) for v in vs)}\n" for c, vs in values.items() if c not in errors)
    proc = spawn([probe, "judge"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(lines, timeout=60)
    CHILDREN.remove(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"judge exited with {proc.returncode}")
    for line in out.splitlines():
        verdict = json.loads(line)
        failures.setdefault(artifact_of[verdict["id"]], []).append(verdict["why"])
    return failures


def run_batch(repro, probe, root, workload, seed, seconds):
    tally = Tally()
    setup = []
    # Artifact workloads cycle through SEEDS_PER_RUN consecutive seeds, so
    # the fidelity checks can judge their mean; the sweep repeats its seed.
    # Every seed runs at least RUNS_PER_SEED times, then the run goes on
    # until the timed windows add up to `seconds`.
    cycle = 1 if workload == "sweep" else SEEDS_PER_RUN
    iterations = []
    measured = 0.0
    attempts = 0
    while attempts < RUNS_PER_SEED * cycle or (iterations and measured < seconds):
        s = seed + attempts % cycle
        attempts += 1
        setup += [repro_setup(repro, workload, s) for _ in range(SETUPS_PER_ITERATION)]
        start = time.perf_counter()
        try:
            proc = batch_start(probe, root, workload, s, tally)
            result = read_json_line(proc, "batch iteration")
            status, rss = reap(proc, timeout=170.0)
            if status != 0:
                raise RuntimeError(f"exited with {status}")
        except (RuntimeError, ValueError) as e:
            # A crashed iteration fails all its operations; the run goes on.
            stop_children()
            tally.add(OPERATIONS[workload], OPERATIONS[workload], [f"seed {s}: iteration failed: {e}"])
            measured += time.perf_counter() - start
            continue
        result["seed"] = s
        result["rss_mb"] = rss
        iterations.append(result)
        measured += result["wall_s"]

    if not iterations:
        raise RuntimeError("every iteration failed: " + "; ".join(tally.problems))
    # Every iteration of one seed must print the same output.
    reference = {}
    for it in iterations:
        reference.setdefault(it["seed"], it["digest"])
    invalid = judge(probe, iterations) if cycle > 1 else {}
    for artifact, whys in invalid.items():
        tally.problems.append(f"{artifact}: " + "; ".join(whys))
    for it in iterations:
        failed = it["failed"]
        if it["digest"] != reference[it["seed"]]:
            failed = it["attempted"]
            tally.problems.append(f"seed {it['seed']}: digest {it['digest']} differs from {reference[it['seed']]}")
        else:
            failed += sum(1 for op in it["ops"] if op["name"] in invalid)
        tally.add(it["attempted"], min(failed, it["attempted"]), it["problems"])

    # A batch is one request for all its operations, answered when the
    # whole output is ready: its latency is the iteration's wall time.
    samples = {
        "setup_s": setup,
        "wall_s": [it["wall_s"] for it in iterations],
        "peak_rss_mb": [it["rss_mb"] for it in iterations],
    }
    for name in ("read_p50_ms", "miss_p50_ms"):
        samples[name] = [it["wall_s"] * 1e3 for it in iterations]
    metrics = {name: stats.median(values) for name, values in samples.items()}
    counts = {s: sum(1 for it in iterations if it["seed"] == s) for s in reference}
    notes = [f"{len(iterations)} iterations; output digest by seed (every run of a seed "
             "must print it): " + ", ".join(f"{s} {d} (x{counts[s]})" for s, d in reference.items()),
             "read_p50_ms, miss_p50_ms: wall_s in ms, the latency of the batch as one request "
             "for all its operations; they repeat wall_s, so count one regression once",
             f"throughput {stats.median([it['attempted'] / it['wall_s'] for it in iterations]):.6g} "
             "operations (artifacts or sweep points) per second"]
    if cycle > 1:
        checks = len({c["id"] for it in iterations for c in it["checks"]})
        notes.append(f"fidelity: {checks} checks judged on their mean over seeds "
                     f"{seed}..{seed + cycle - 1}, {sum(len(w) for w in invalid.values())} failed")
    return metrics, samples, tally, notes


# ---------------------------------------------------------------- serve


def healthz(addr):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=2)
    try:
        conn.request("GET", "/healthz", headers={"Connection": "close"})
        return conn.getresponse().status == 200
    finally:
        conn.close()


def start_daemon(repro, store, out):
    """Starts `repro serve` on the store; returns (process, address,
    seconds from spawn until /healthz answers)."""
    addr_file = os.path.join(out, "addr")
    if os.path.exists(addr_file):
        os.remove(addr_file)
    start = time.perf_counter()
    proc = spawn(
        [repro, "serve", "--addr", "127.0.0.1:0", "--addr-file", addr_file,
         "--workers", "2", "--cache", "16", "--store", store],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = start + 30.0
    addr = None
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}")
        if addr is None and os.path.exists(addr_file):
            with open(addr_file) as f:
                addr = f.read().strip() or None
        if addr is not None:
            try:
                if healthz(addr):
                    return proc, addr, time.perf_counter() - start
            except OSError:
                pass
        time.sleep(0.0005)
    raise RuntimeError("daemon did not become healthy")


def stop_daemon(proc):
    proc.send_signal(signal.SIGTERM)
    status, rss = reap(proc, timeout=20.0)
    if status != 0:
        raise RuntimeError(f"daemon exited with {status} on SIGTERM")
    return rss


def growing_lag(late_ms):
    """Whether the generator fell behind during a step: its lateness over
    the last quarter exceeds the first quarter's by the latency limit."""
    if len(late_ms) < 8:
        return False
    q = len(late_ms) // 4
    return stats.median(late_ms[-q:]) > stats.median(late_ms[:q]) + READ_LIMIT_MS


def serve_leg(repro, probe, seed, seconds, mode, out):
    """One daemon session: fill its store, restart it, offer the load.
    Returns (load result, fill result, set-up samples, daemon RSS MB)."""
    store = os.path.join(out, "store")
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    load = spawn(
        [probe, "serve-load", "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    read_json_line(load, "serve expected bodies")
    log("expected bodies computed")
    daemon, addr, _ = start_daemon(repro, store, out)
    load.stdin.write(f"addr {addr}\n")
    load.stdin.flush()
    fill = read_json_line(load, "serve fill")
    log(f"store filled in {fill['filled_s']:.2f} s")
    stop_daemon(daemon)
    setup = []
    for _ in range(SERVE_RESTARTS if mode == "full" else 0):
        daemon, _, started = start_daemon(repro, store, out)
        setup.append(started)
        stop_daemon(daemon)
    daemon, addr, started = start_daemon(repro, store, out)
    setup.append(started)
    load.stdin.write(f"addr {addr}\n")
    load.stdin.flush()
    log("load started")
    result = read_json_line(load, "serve load")
    log("load finished")
    load.stdin.close()
    status, _ = reap(load)
    if status != 0:
        raise RuntimeError(f"serve load exited with {status}")
    rss = stop_daemon(daemon)
    shutil.rmtree(store, ignore_errors=True)
    return result, fill, setup, rss


def serve_tally(result, fill):
    tally = Tally()
    tally.add(fill["fill_attempted"], fill["fill_failed"],
              [f"{fill['fill_failed']} fill responses wrong"] if fill["fill_failed"] else [])
    for step in result["steps"]:
        tally.add(step["attempted"], step["failed"],
                  [f"{step['failed']} reads failed at {step['rate']:.0f}/s"] if step["failed"] else [])
    miss = result["miss"]
    tally.add(miss["attempted"], miss["failed"],
              [f"{miss['failed']} misses failed"] if miss["failed"] else [])
    tally.problems.extend(result["problems"])
    return tally


def read_step(result, rate):
    return next(s for s in result["steps"] if s["rate"] == rate)


def ladder(result):
    """Judges each step of the read ladder; returns its report lines and
    max_read_qps: the served rate of the highest step whose reads all
    succeeded, kept read p99 within READ_LIMIT_MS, and did not leave the
    generator falling behind (0 when no step qualifies)."""
    passing = [0.0]
    lines = []
    for step in result["steps"]:
        lat = step["lat_ms"]
        p50 = stats.nearest_rank(lat, 50) if lat else float("nan")
        p99 = stats.nearest_rank(lat, 99) if lat else float("inf")
        served = step["attempted"] / step["served_s"] if step["served_s"] > 0 else 0.0
        lag = growing_lag(step["late_ms"])
        ok = step["failed"] == 0 and p99 <= READ_LIMIT_MS and not lag
        if ok:
            passing.append(served)
        lines.append(f"  {step['rate']:>7.0f}/s offered: {served:9.1f}/s served, p50 {p50:.3f} ms, "
                     f"p99 {p99:.3f} ms, {step['failed']} failed, lag {'growing' if lag else 'steady'}"
                     f"{'' if ok else '  (over the limit)'}")
    return lines, max(passing)


def run_serve(repro, probe, seed, seconds, out):
    result, fill, setup, rss = serve_leg(repro, probe, seed, seconds, "full", out)
    tally = serve_tally(result, fill)
    rung = read_step(result, READ_RATE)
    miss = result["miss"]["lat_ms"] or [float("nan")]
    metrics = {
        "setup_s": stats.median(setup),
        "wall_s": result["load_s"],
        "peak_rss_mb": rss,
        "read_p50_ms": stats.nearest_rank(rung["lat_ms"], 50),
        "miss_p50_ms": stats.nearest_rank(miss, 50),
    }
    samples = {
        "setup_s": setup,
        "wall_s": [result["load_s"]],
        "peak_rss_mb": [rss],
        "read_p50_ms": rung["lat_ms"],
        "miss_p50_ms": miss,
    }
    lines, max_read_qps = ladder(result)
    tiers = json.loads(result["metrics"])["store"]
    reads = max(1, tiers["l1_hits"] + tiers["l2_hits"])
    notes = [f"store filled with {fill['fill_attempted']} keys in {fill['filled_s']:.2f} s",
             f"reads served from memory (L1) {tiers['l1_hits'] / reads:.1%}, from disk (L2) "
             f"{tiers['l2_hits'] / reads:.1%}; {tiers['misses']} misses computed",
             "wall_s: first due read to last reply of the fixed request schedule; it moves only "
             "if the daemon falls behind"]
    notes += ["read ladder (latency timed from when each read was due):"] + lines
    notes += ["not gated (their spread on a shared 2-core host exceeds any usable bound; "
              "see perfbench/README.md):",
              f"  read_p99_ms {stats.nearest_rank(rung['lat_ms'], 99):.6g} ms at {READ_RATE:.0f}/s offered",
              f"  miss_p90_ms {stats.nearest_rank(miss, 90):.6g} ms over {len(miss)} misses",
              f"  max_read_qps {max_read_qps:.6g} 1/s"]
    return metrics, samples, tally, notes, result


def serve_layer_metrics(result, rate):
    """Per-layer serve and store numbers from a load result and /metrics."""
    m = json.loads(result["metrics"])
    runs = [v for k, v in m["latency"].items() if k.startswith("run:")]
    server_us = sum(v["total_seconds"] for v in runs) / max(1, sum(v["count"] for v in runs)) * 1e6
    rung = read_step(result, rate)
    store = m["store"]
    hits = store["l1_hits"] + store["l2_hits"]
    out = {
        "serve.server_us.run": ("us", [server_us], False),
        "serve.client_gap_us": ("us", [stats.median(rung["lat_ms"]) * 1e3 - server_us], False),
        "serve.rejected": ("count", [m["rejected"]], False),
        "serve.gen_late_ms": ("ms", [stats.nearest_rank(rung["late_ms"], 99)], False),
        "serve.max_read_qps": ("1/s", [ladder(result)[1]], False),
        "serve.read_p99_ms": ("ms", [stats.nearest_rank(rung["lat_ms"], 99)], False),
        "serve.miss_p90_ms": ("ms", [stats.nearest_rank(result["miss"]["lat_ms"] or [float("nan")], 90)], False),
        "store.hit_ratio": ("ratio", [hits / max(1, hits + store["misses"])], False),
    }
    for name in STORE_COUNTERS:
        out[f"store.{name}"] = ("count", [store[name]], False)
    return out


# ---------------------------------------------------------------- output


def print_table(title, rows):
    """Prints each metric's value, then its samples' median, quartiles,
    count and highest supported percentile."""
    print(title)
    for name, unit, value, values in rows:
        s = stats.summary(values)
        tail = s["tail"]
        tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "-"
        print(f"  {name:34} {value:<12.6g} {unit:6} samples: median {s['median']:<11.6g} "
              f"q1 {s['q1']:<11.6g} q3 {s['q3']:<11.6g} n {s['n']:<6} {tail_text}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml", "tests/golden/sweep_smoke.json"):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit(f"run from the repository root: {needed} is missing")
    repro, probe = build(root)
    log("built")
    out = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)

    if args.trace == 0:
        if args.workload == "serve":
            metrics, samples, tally, notes, _ = run_serve(repro, probe, args.seed, args.seconds, out)
        else:
            metrics, samples, tally, notes = run_batch(repro, probe, root, args.workload, args.seed, args.seconds)
        print(f"workload {args.workload}, seed {args.seed}, untraced")
        for note in notes:
            print(f"  {note}")
        print_table("end-to-end metrics:", [(n, END_TO_END[n], metrics[n], samples[n]) for n in END_TO_END])
        result_metrics = {n: {"value": metrics[n], "unit": END_TO_END[n]} for n in END_TO_END}
    else:
        spans = os.path.join(out, "spans.jsonl")
        proc = spawn(
            [probe, "layers", "--workload", args.workload, "--seed", str(args.seed),
             "--root", root, "--spans", spans],
            stdout=subprocess.PIPE,
            text=True,
        )
        layers = read_json_line(proc, "traced run")
        status, _ = reap(proc, timeout=170.0)
        if status != 0:
            raise RuntimeError(f"traced run exited with {status}")
        tally = Tally()
        tally.add(1, 1 if layers["problems"] else 0, layers["problems"])
        per_layer = {name: (m["unit"], m["samples"], m["exact"]) for name, m in layers["metrics"].items()}
        if args.workload == "serve":
            _, _, serve_tally_, _, result = run_serve(repro, probe, args.seed, args.seconds, out)
            rate = READ_RATE
        else:
            result, fill, _, _ = serve_leg(repro, probe, args.seed, args.seconds, "probe", out)
            serve_tally_ = serve_tally(result, fill)
            rate = result["steps"][0]["rate"]
        tally.add(serve_tally_.attempted, serve_tally_.failed, serve_tally_.problems)
        per_layer.update(serve_layer_metrics(result, rate))
        print(f"workload {args.workload}, seed {args.seed}, traced ({layers['spans']} spans in {spans})")
        print(f"  untraced wall_s {layers['wall_s_untraced']:.6g}, traced wall_s "
              f"{layers['wall_s_traced']:.6g}: tracing overhead "
              f"{layers['wall_s_traced'] - layers['wall_s_untraced']:+.6g} s")
        print(f"  Viterbi kernel dispatched: {layers['viterbi_kernel']}")
        heavy = sorted(layers["memory"], key=lambda r: r["peak_mb"] - r["before_mb"], reverse=True)[:3]
        for row in heavy:
            print(f"  memory of spec {row['spec']}: {row['records']} buffered records; RSS "
                  f"{row['before_mb']:.1f} MB before, {row['after_run_mb']:.1f} MB holding the trace, "
                  f"peak {row['peak_mb']:.1f} MB through run and classify")
        print_table("per-layer metrics (exact counts marked =):", [
            (("= " if exact else "") + n, u, stats.median(v), v) for n, (u, v, exact) in sorted(per_layer.items())
        ])
        result_metrics = {
            n: {"value": stats.median(v), "unit": u} for n, (u, v, _) in sorted(per_layer.items())
        }

    error_frac = tally.failed / max(1, tally.attempted)
    print(f"error_frac {error_frac:.6f} ({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    if args.trace == 0:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result_metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    finally:
        stop_children()
