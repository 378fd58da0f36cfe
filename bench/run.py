"""The altfrob benchmark: three CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload {grassmann,mirror,deform} --seed N \\
        --seconds S --trace {0,1} [--smoke] [--digests FILE] [--record]

Run it from the root of a checkout.  Each job is a fresh interpreter calling
``altfrob.cli.main(argv)`` (``bench/job.py``), so no cache or import state
carries over between jobs.  The load is a closed loop: one job at a time,
one child process at a time.  A run

1. sets the workload up once in a cold interpreter (``setup_inputs.py``), which
   writes the jobs' inputs and fills the bytecode cache;
2. runs the smoke-size jobs once, untimed;
3. repeats the workload's jobs, one pass after another, while the next pass
   still fits in ``--seconds`` (at least one pass), and reports medians over
   the passes.  Before each pass it times a few more set-ups; their median is
   ``setup_s``, sampled across the run rather than at one moment.  With
   ``--trace 1`` untraced and traced passes alternate and the per-layer
   metrics of ``tracer.py`` are reported instead.

A shared host's speed drifts: on a 2-vCPU VM the same deform pass took 4.0 s
to 7.5 s within five minutes, user CPU time moving with it, and the two vCPUs
were not equally fast at the same moment.  So the benchmark and its children
are pinned to one CPU, and while each job and set-up runs, the benchmark
times a fixed pure-Python reference loop (``reference()``, stdlib only,
independent of altfrob) on that CPU every ``REF_EVERY_MS``.  A job's wall time
leaves out the CPU time these samples took.  The times reported under
``wall_s``, ``cpu_s`` and ``setup_s`` are seconds at reference speed: each
pass's measured times multiplied by ``REF_S`` over the mean reference sample
of that pass and its set-ups.  A change to altfrob moves them as it moves the
raw times; a slower host does not.  The raw times and reference samples go to
the results file.

Every job's stdout and ``--out`` files are checked against the SHA-256
digests in ``bench/digests.json``, recorded with ``--record``.  A non-zero
exit or a digest mismatch fails the job without dropping its sample.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; raw samples and provenance go to
``.bench_work/results/BENCH_<label>.json``.  Exit code 0 when every job
passed, 1 when a job or the set-up failed, 2 when there are no altfrob
sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
SETUPS_PER_PASS = 3   # timed set-ups before each pass; setup_s is their median
JOB_TIMEOUT = 150     # seconds before a job is killed and counted as failed
REF_EVERY_MS = 100    # while a child runs, the reference loop is timed this often
REF_S = 0.0008        # CPU seconds of one reference loop at "reference speed"


class Job(NamedTuple):
    name: str
    argv: tuple[str, ...]
    outs: tuple[str, ...] = ()    # files the job writes through --out


# workload -> (full-size jobs, smoke-size jobs); "{seed}" is the run's seed
WORKLOADS = {
    "grassmann": (
        [Job("oracle-r3-n7", ("grassmann", "--r", "3", "--n", "7", "--oracle",
                              "--seed", "{seed}")),
         Job("table-r2-n12", ("grassmann", "--r", "2", "--n", "12"))],
        [Job("smoke-oracle-r2-n3", ("grassmann", "--r", "2", "--n", "3", "--oracle",
                                    "--seed", "{seed}"))]),
    "mirror": (
        [Job("algebra-n4", ("mirror", "--n", "4")),
         Job("compare-n4", ("mirror", "--n", "4", "--compare"))],
        [Job("smoke-compare-n2", ("mirror", "--n", "2", "--compare"))]),
    "deform": (
        [Job("hm-p4-o6", ("hm", "--family", "p4.json", "--psi", "psi.json",
                          "--out", "ext.json"), ("ext.json",)),
         Job("verify-p4-o6", ("verify", "--family", "ext.json")),
         Job("gw-d16", ("gw", "--dmax", "16"))],
        [Job("smoke-hm-p1-o3", ("hm", "--family", "p1.json", "--psi", "psi1.json",
                                "--out", "ext1.json"), ("ext1.json",)),
         Job("smoke-verify-p1-o3", ("verify", "--family", "ext1.json")),
         Job("smoke-gw-d3", ("gw", "--dmax", "3"))]),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "ok_frac": "fraction"}
DERIVED = ["grassmann.bialternant.out_per_term", "mirror.box.useful_frac",
           "cli.import_s", "cli.self_s", "cli.out_bytes", "trace_overhead_frac"]


def per_layer_names() -> list[str]:
    return tracer.metric_names() + DERIVED


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("out_per_term"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# host speed


def reference() -> float:
    """CPU seconds of one fixed pure-Python loop (Fraction sums in a dict, int arithmetic).

    It is this thread's CPU time, not wall time, so a child that preempts the
    loop on the shared CPU does not count.
    """
    t = time.thread_time()
    acc: dict = {}
    for i in range(200):
        key = (i % 17, i % 13, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7 + i % 11)
    s = 0
    for i in range(4000):
        s += (i * i) % 7
    return time.thread_time() - t


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, where the reference runs too."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path, stderr: Path):
    """Run one child to completion, sampling the reference loop while it runs.

    Return (exit code, wall s, cpu s, max RSS MB, reference samples).  One
    sample is taken before the child starts, the others every
    ``REF_EVERY_MS`` until it exits; the wall time leaves out the CPU time
    of the samples taken while it ran.
    """
    refs = [reference()]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.alarm(JOB_TIMEOUT)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(REF_EVERY_MS):
                refs.append(reference())
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            os.close(pidfd)
        wall = time.perf_counter() - t - sum(refs[1:])
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, refs


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload: str, jobs: list[Job], cwd: Path, seed: int, traced: bool,
             digests: dict) -> dict:
    """Run the jobs once, in order; the pass time is the sum of their wall times."""
    for job in jobs:
        for name in job.outs:
            (cwd / name).unlink(missing_ok=True)
    records = []
    for job in jobs:
        trace_file = cwd / f"{job.name}.trace.json"
        trace_file.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "job.py"), str(trace_file) if traced else "-",
                "--"] + [a.replace("{seed}", str(seed)) for a in job.argv]
        rc, wall, cpu, rss, refs = spawn(argv, cwd, cwd / f"{job.name}.stdout",
                                         cwd / f"{job.name}.stderr")
        records.append({"job": job.name, "rc": rc, "wall_s": wall, "cpu_s": cpu,
                        "rss_mb": rss, "ref_s": refs})
    for job, rec in zip(jobs, records):
        produced = {"stdout": cwd / f"{job.name}.stdout"}
        produced.update({name: cwd / name for name in job.outs})
        rec["digests"] = {k: sha256(p) for k, p in produced.items() if p.is_file()}
        rec["out_bytes"] = sum(p.stat().st_size for p in produced.values() if p.is_file())
        expected = digests.get(f"{workload}/{job.name}")
        rec["ok"] = rec["rc"] == 0 and expected is not None and rec["digests"] == expected
        trace_file = cwd / f"{job.name}.trace.json"
        if traced and trace_file.is_file():
            rec["trace"] = json.loads(trace_file.read_text())
    return {"traced": traced, "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "jobs": records}


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass: job metrics summed, then ratios."""
    names = tracer.metric_names()
    out = {name: 0 for name in names}
    out.update({"cli.import_s": 0.0, "cli.self_s": 0.0, "cli.out_bytes": 0})
    for rec in p["jobs"]:
        tr = rec.get("trace", {"metrics": {}, "import_s": 0.0, "main_s": 0.0,
                               "spans_s": 0.0})
        for name in names:
            out[name] += tr["metrics"].get(name, 0)
        out["cli.import_s"] += tr["import_s"]
        out["cli.self_s"] += tr["main_s"] - tr["spans_s"]
        out["cli.out_bytes"] += rec["out_bytes"]
    inn, boxes = out["grassmann.bialternant.in_terms"], out["mirror.box_echelon.calls"]
    out["grassmann.bialternant.out_per_term"] = (
        out["grassmann.bialternant.out_terms"] / inn if inn else 0.0)
    out["mirror.box.useful_frac"] = (
        out["mirror.jacobian_algebra.calls"] / boxes if boxes else 0.0)
    return out


# ---------------------------------------------------------------------------
# set-up and provenance


def set_up(workload: str, d: Path) -> tuple[float, list[float]]:
    """Set the workload up in a cold interpreter, writing its inputs to d.

    Return the time and the reference samples taken meanwhile.
    """
    d.mkdir(parents=True, exist_ok=True)
    rc, wall, _, _, refs = spawn(
        [sys.executable, str(BENCH / "setup_inputs.py"), workload, str(d)],
        d, d / "setup.stdout", d / "setup.stderr")
    if rc != 0:
        err = (d / "setup.stderr").read_text(errors="replace").strip()
        raise SystemExit(f"bench: set-up of {workload} failed (exit {rc}): {err}")
    return wall, refs


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def load_digests(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def record(workload: str, path: Path) -> int:
    """Write the digests of one pass of every full and smoke job into ``path``."""
    cwd = WORK / workload / "inputs"
    shutil.rmtree(cwd.parent, ignore_errors=True)
    set_up(workload, cwd)
    full, smoke = WORKLOADS[workload]
    digests = load_digests(path)
    for p in (run_pass(workload, smoke, cwd, 0, False, {}),
              run_pass(workload, full, cwd, 0, False, {})):
        for rec in p["jobs"]:
            if rec["rc"] != 0:
                print(f"bench: {rec['job']} exited {rec['rc']}; nothing recorded",
                      file=sys.stderr)
                return 1
            digests[f"{workload}/{rec['job']}"] = rec["digests"]
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"bench: recorded {workload} digests in {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# main


def measure(args, jobs: list[Job], cwd: Path,
            digests: dict) -> tuple[list[dict], list[float]]:
    """Set-ups and passes while the next pass fits in --seconds.

    Untraced and traced passes alternate under --trace 1.  Each pass records
    its reference samples and ``scale``, the factor from its measured seconds
    to seconds at reference speed; set-up times are returned scaled.
    """
    kinds = [False, True] if args.trace else [False]
    passes: list[dict] = []
    setups: list[float] = []
    t0 = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        raw_setups, setup_refs = [], []
        for _ in range(SETUPS_PER_PASS):
            wall, samples = set_up(args.workload, cwd.parent / "setup")
            raw_setups.append(wall)
            setup_refs += samples
        traced = kinds[len(passes) % len(kinds)]
        p = run_pass(args.workload, jobs, cwd, args.seed, traced, digests)
        refs = setup_refs + [x for rec in p["jobs"] for x in rec["ref_s"]]
        p.update(scale=REF_S / statistics.fmean(refs), setup_raw_s=raw_setups,
                 setup_ref_s=setup_refs, iter_s=time.perf_counter() - t_iter)
        setups += [s * p["scale"] for s in raw_setups]
        passes.append(p)
        if len(passes) < len(kinds):
            continue
        nxt = kinds[len(passes) % len(kinds)]
        est = statistics.median(p["iter_s"] for p in passes if p["traced"] == nxt)
        if time.perf_counter() - t0 + est > args.seconds:
            return passes, setups


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="seconds-long job sizes")
    ap.add_argument("--digests", type=Path, default=BENCH / "digests.json")
    ap.add_argument("--record", action="store_true",
                    help="record output digests instead of measuring")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "altfrob" / "cli.py").is_file():
        print(f"bench: no altfrob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record(args.workload, args.digests)

    pin_to_one_cpu()
    digests = load_digests(args.digests)
    cwd = WORK / args.workload / "inputs"
    shutil.rmtree(cwd.parent, ignore_errors=True)
    set_up(args.workload, cwd)
    full, smoke = WORKLOADS[args.workload]
    jobs = smoke if args.smoke else full
    warm = run_pass(args.workload, smoke, cwd, args.seed, False, digests)
    passes, setup_times = measure(args, jobs, cwd, digests)

    all_jobs = [rec for p in [warm] + passes for rec in p["jobs"]]
    attempted = len(all_jobs)
    failed = sum(not rec["ok"] for rec in all_jobs)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests_of = [tuple(r["digests"] for r in p["jobs"]) for p in passes]
    same_outputs = all(d == digests_of[0] for d in digests_of)

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["trace_overhead_frac"] = (
            statistics.median(p["wall_s"] * p["scale"] for p in traced)
            / statistics.median(p["wall_s"] * p["scale"] for p in untraced) - 1)
        names = per_layer_names()
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(setup_times),
            "ok_frac": (attempted - failed) / attempted,
        }
        names = list(END_TO_END)
    metrics = {name: {"value": values[name], "unit": END_TO_END.get(name) or unit_of(name)}
               for name in names}

    label = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
             + ("-smoke" if args.smoke else ""))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{label}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": commit_id(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)), "reference_speed_s": REF_S,
        "trace_overhead_frac": values.get("trace_overhead_frac"),
        "same_outputs_traced_and_untraced": same_outputs,
        "layers": tracer.LAYERS, "metrics": metrics,
        "setup_s": setup_times, "warmup": warm, "passes": passes,
    }, indent=1, sort_keys=True) + "\n")

    correct = failed == 0 and same_outputs
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
