#!/usr/bin/env python3
"""Host-time benchmark of the figure registry and its simulator layers.

Builds the `perfbench` worker from source, then measures one workload:

  python3 perfbench/run.py --workload figures-random --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --self-test

--trace 0 runs fresh worker processes, one untraced pass of the workload's
registry jobs each, until --seconds have passed (at least three passes), plus
setup-only processes. It times each job at its fastest run over the passes:
wall_s sums those times, job_max_s is the largest, sim_events_per_s divides
one pass's simulated events by wall_s. setup_s is the median over passes of
the fastest of the setups made before each, peak_rss_mb a median over passes.

--trace 1 runs one untraced pass and one traced pass (every registry job and
every layer kernel under spans) and reports the per-layer metrics; the
trace-event file lands in perfbench/out/. Every pass checks each job's figure
and counter digests against tests/goldens/figure_digests.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every check passed, 1 when a job
failed or a digest or count differed, 2 when the goldens cannot be used.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(ROOT, "tests", "goldens", "figure_digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Untraced passes per run, at least; more while --seconds last.
MIN_PASSES = 3
# Setup-only processes before each pass; with the pass's own setup they make
# one batch, and setup_s is the median over batches of each batch's fastest.
SETUP_PER_PASS = 8
# Upper bound on one worker process.
WORKER_TIMEOUT_S = 170


class Refused(Exception):
    """The worker refused to run (unusable goldens or bad arguments)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker; return its path. Exits 1 when the build fails."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(target, "release", "perfbench")


def worker(binary, mode, workload, goldens, *extra):
    """Run one fresh worker process and return its report."""
    cmd = [binary, mode, "--workload", workload, "--goldens", goldens, *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=WORKER_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode == 2 or not lines:
        log(r.stderr.strip()[-2000:])
        raise Refused(f"worker {mode} exited {r.returncode}")
    report = json.loads(lines[-1])
    for p in report.get("problems", []):
        log(f"perfbench: FAILED {p}")
    return report


def spec_metrics(section):
    with open(SPEC) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def digests(report):
    return {j["id"]: j["counters"] for j in report["jobs"]}


def end_to_end(binary, args, goldens):
    deadline = time.monotonic() + args.seconds
    passes, setups, last = [], [], 0.0
    # A pass starts only if one as long as the last one still ends by the
    # deadline, so a run takes about --seconds and not a pass more.
    while len(passes) < MIN_PASSES or time.monotonic() + last < deadline:
        started = time.monotonic()
        # Setup-only processes are spread over the run, so they sample the
        # same host conditions as the passes.
        batch = [worker(binary, "setup", args.workload, goldens)["setup_s"]
                 for _ in range(SETUP_PER_PASS)]
        report = worker(binary, "run", args.workload, goldens)
        passes.append(report)
        setups.append(batch + [report["setup_s"]])
        last = time.monotonic() - started
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Counts are deterministic: every pass must reproduce the first one's
    # per-job counters exactly.
    for p in passes[1:]:
        for job, digest in digests(p).items():
            if digests(passes[0]).get(job) != digest:
                log(f"perfbench: FAILED {job}: counters differ between passes")
                failed += 1
    # The simulated work is identical in every pass, so host noise from other
    # tenants only ever adds time, and it comes in bursts shorter than a pass:
    # each job's fastest run over the passes is the steadiest estimate of its
    # cost. wall_s adds the pass's time outside the jobs (the digest checks).
    job_s = {}
    for p in passes:
        for j in p["jobs"]:
            job_s[j["id"]] = min(j["s"], job_s.get(j["id"], j["s"]))
    outside = statistics.median(p["wall_s"] - sum(j["s"] for j in p["jobs"]) for p in passes)
    wall_s = sum(job_s.values()) + outside
    # A fresh process's setup takes one of two speeds, about 40% apart, as the
    # host's state flips; a batch's fastest setup is the fast one.
    values = {
        "setup_s": statistics.median(min(batch) for batch in setups),
        "wall_s": wall_s,
        "job_max_s": max(job_s.values()),
        "sim_events_per_s": passes[0]["sim_events"] / wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {"passes": passes, "setup_samples": setups}
    log(f"perfbench: {args.workload} seed={args.seed} passes={len(passes)} "
        f"workers={passes[0]['workers']} (one fresh process per pass)")
    return values, attempted, failed, details


def traced(binary, args, goldens):
    untraced = worker(binary, "run", args.workload, goldens)
    trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    report = worker(binary, "trace", args.workload, goldens,
                    "--seed", str(args.seed), "--trace-out", trace_file)
    attempted = untraced["attempted"] + report["attempted"]
    failed = untraced["failed"] + report["failed"]
    traced_digests, own = digests(report), digests(untraced)
    for job, digest in own.items():
        if traced_digests.get(job) != digest:
            log(f"perfbench: FAILED {job}: traced counters differ from the untraced pass")
            failed += 1
    values = dict(report["rows"])
    for j in report["jobs"]:
        values[f"job.{j['id']}.s"] = j["s"]
    traced_s = sum(j["s"] for j in report["jobs"] if j["id"] in own)
    values["trace.overhead_frac"] = traced_s / untraced["wall_s"] - 1.0
    log(f"perfbench: {args.workload} seed={args.seed} traced; spans in {os.path.relpath(trace_file, ROOT)}")
    return values, attempted, failed, {"untraced": untraced, "trace": report}


def measure(args, goldens):
    """Run one benchmark measurement; return the exit code."""
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    run = traced if args.trace else end_to_end
    section = "per_layer" if args.trace else "end_to_end"
    try:
        values, attempted, failed, details = run(binary, args, goldens)
    except Refused as e:
        log(f"perfbench: refusing to report: {e}")
        return 2
    metrics = {}
    for name, unit in spec_metrics(section):
        if name not in values:
            log(f"perfbench: FAILED metric {name} was not measured")
            failed += 1
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<34} {failed / max(attempted, 1):>16.6g} frac ({failed} of {attempted})")
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, metrics=metrics)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(details, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_test():
    """A golden copy with one digest flipped must fail the run, and one with
    another profile tag must be refused."""
    build()
    os.makedirs(OUT, exist_ok=True)
    with open(GOLDENS) as f:
        goldens = json.load(f)
    flipped = json.loads(json.dumps(goldens))
    job = next(j for j in flipped["jobs"] if j["id"] == "fig17")
    digest = job["figures"][0]["digest"]
    job["figures"][0]["digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    retagged = json.loads(json.dumps(goldens))
    retagged["profile"] = "xeon_gold_6326/64 data_div=64 reps=1"
    ok = True
    for name, doc, want in [("flipped", flipped, 1), ("retagged", retagged, 2)]:
        path = os.path.join(OUT, f"selftest-{name}-goldens.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", "figures-stream",
               "--seed", "1", "--seconds", "1", "--trace", "0", "--goldens", path]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=600)
        last = (r.stdout.strip().splitlines() or [""])[-1]
        if want == 1:
            result = json.loads(last) if last.startswith("{") else {}
            frac = result.get("failed", 0) / max(result.get("attempted", 1), 1)
            good = r.returncode == 1 and frac > 0 and result.get("correct") is False
            log(f"self-test {name}: exit {r.returncode}, failed_frac {frac:.3f}")
        else:
            good = r.returncode == 2 and not last.startswith("{")
            log(f"self-test {name}: exit {r.returncode}, result printed: {last.startswith('{')}")
        ok &= good
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["figures-random", "figures-stream"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--goldens", default=GOLDENS, help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not (os.path.isfile(args.goldens) and shutil.which("cargo")):
        log("perfbench: needs the repository sources, the goldens and cargo")
        return 1
    return measure(args, os.path.abspath(args.goldens))


if __name__ == "__main__":
    sys.exit(main())
