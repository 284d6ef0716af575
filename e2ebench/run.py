#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of slimcodeml_main.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload gene_fit --seed 1 --seconds 20 --trace 0

It builds the CLI and the benchmark tool into .bench_build/ (Release),
generates the workload's inputs from --seed into .bench_work/, runs the CLI
for --seconds seconds (at least once), checks every output, and prints one
JSON object as the last line of stdout.  --trace 0 reports the end-to-end
metrics; --trace 1 makes one untraced and one traced run and reports the
per-layer metrics.  See e2ebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"

WORKLOADS = ("gene_fit", "branch_scan", "gene_batch")
BUILD_JOBS = 4
ORACLE_TOL = 1e-6  # |lnL(codeml preset) - reported lnL| at each MLE
MIN_GAP_LNL = 1.0  # lnl_gap_closed leaves out fits starting closer to the truth
MIN_REPS = 2  # CLI runs per untraced run, however long --seconds is
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # a run must exit within 180 s
CLI_TIMEOUT_S = 90  # one CLI process; the slowest takes about 25 s

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "tests_per_min": ("1/min", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "completed_frac": ("fraction", "higher"),
    "lnl_gap_closed": ("fraction", "higher"),
}

# name -> (unit, better) of the traced run's per-layer metrics.
PER_LAYER = {
    "seqio.load_s": ("s", "lower"),
    "seqio.patterns": ("count", "lower"),
    "core.context_s": ("s", "lower"),
    "expm.eigendecompositions": ("count", "lower"),
    "expm.propagator_builds": ("count", "lower"),
    "expm.eigen_us": ("us", "lower"),
    "expm.propagator_us": ("us", "lower"),
    "expm.busy_s_est": ("s", "lower"),
    "lik.evaluations": ("count", "lower"),
    "lik.gradient_sweeps": ("count", "lower"),
    "lik.pattern_propagations": ("count", "lower"),
    "lik.eval_ms": ("ms", "lower"),
    "lik.eval_ms_1t": ("ms", "lower"),
    "lik.sweep_ms": ("ms", "lower"),
    "lik.thread_efficiency": ("ratio", "higher"),
    "lik.codeml_eval_ms": ("ms", "lower"),
    "lik.codeml_speedup": ("ratio", "higher"),
    "lik.cache_hits": ("count", "higher"),
    "lik.cache_misses": ("count", "lower"),
    "lik.cache_hit_ratio": ("ratio", "higher"),
    "lik.busy_s_est": ("s", "lower"),
    "opt.iterations": ("count", "lower"),
    "opt.function_evals": ("count", "lower"),
    "opt.fd_probe_evals": ("count", "lower"),
    "opt.fd_probe_share": ("ratio", "lower"),
    "opt.other_s_est": ("s", "lower"),
    "core.fit_s": ("s", "lower"),
    "core.site_scan_s": ("s", "lower"),
    "core.run_s": ("s", "lower"),
    "core.worker_busy_frac": ("ratio", "higher"),
    "core.tail_share": ("ratio", "lower"),
    "core.task_level": ("bool", "higher"),
    "core.checkpoint_bytes": ("bytes", "lower"),
    "core.checkpoint_flush_ms": ("ms", "lower"),
    "core.report_s": ("s", "lower"),
    "core.report_bytes": ("bytes", "lower"),
    "stat.significant": ("count", "higher"),
    "stat.nested_shortfalls": ("count", "lower"),
    "stat.max_nested_shortfall": ("lnL", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build, bad host)."""


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


# --- build and fingerprint -------------------------------------------------

def build():
    """Configure (once) and build the CLI and the tool; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no slimcodeml sources at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(BUILD_JOBS)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD / "slimcodeml" / "slimcodeml_main", BUILD / "e2ebench_tool"


def fingerprint(cli):
    """Host and build identity; refuses builds whose timings mean nothing."""
    version = subprocess.run([str(cli), "--version"], check=True, text=True,
                             capture_output=True, timeout=30).stdout.strip()
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    sanitize = next((line.split("=", 1)[1] for line in cache.splitlines()
                     if line.startswith("SLIM_SANITIZE:")), "OFF")
    if build_type != "Release" or "Release" not in version:
        raise BenchError(f"refusing a non-Release build: {version!r}")
    if sanitize.upper() not in ("OFF", ""):
        raise BenchError(f"refusing a sanitizer build (SLIM_SANITIZE={sanitize})")
    return {"nproc": len(os.sched_getaffinity(0)), "version": version}


# --- running the CLI and reading its reports -------------------------------

def run_process(argv, cwd, log_name, timeout):
    """Run one child to completion (killed after `timeout` s); returns
    (exit code, wall s, rusage of that child alone)."""
    with open(cwd / log_name, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def read_tests(report_path):
    """{task name: test object} from a CLI JSON report (single or batch)."""
    report = json.loads(report_path.read_text())
    if "test" in report:
        return {"gene": report["test"]}
    return {t["gene"]: t for t in report["genes"]}


def hex_lnl(value):
    return float(value).hex() if isinstance(value, (int, float)) else None


def lnl_bits(tests):
    """{task: (lnL0 hex, lnL1 hex)}; None marks a non-finite (null) lnL."""
    return {name: (hex_lnl(t["h0"]["lnL"]), hex_lnl(t["h1"]["lnL"]))
            for name, t in tests.items()}


def test_failed(test):
    """A test counts as failed when either fit was cancelled or did not
    converge."""
    return any(test[h].get("cancelled", False) or not test[h]["converged"]
               for h in ("h0", "h1"))


def check_report(tests, expected, problems):
    """Hard checks on one CLI report: every expected task present, every lnL
    finite.  Appends a message per violation to `problems`."""
    missing = sorted(set(expected) - set(tests))
    extra = sorted(set(tests) - set(expected))
    if missing:
        problems.append(f"missing tasks: {missing}")
    if extra:
        problems.append(f"unexpected tasks: {extra}")
    for name, (l0, l1) in lnl_bits(tests).items():
        for tag, bits in (("lnL0", l0), ("lnL1", l1)):
            if bits is None or not math.isfinite(float.fromhex(bits)):
                problems.append(f"{name}: {tag} is not finite")


def check_same_lnls(reference, bits, what, problems):
    """Every task's lnL0/lnL1 must carry the reference's exact bits."""
    for name in sorted(set(reference) | set(bits)):
        if reference.get(name) != bits.get(name):
            problems.append(f"{what}: {name} lnLs {bits.get(name)} differ "
                            f"from {reference.get(name)}")


def expected_tasks(workload, names, problems):
    """Task names the report must hold.  The tool lists the names the program
    derives; their number is pinned independently here."""
    want = {"gene_fit": 1, "branch_scan": 32, "gene_batch": 16}[workload]
    if len(names) != want:
        problems.append(f"{len(names)} tasks, expected {want}")
    return sorted(names)


def lnl_gap_closed(tests, reference):
    """Mean over the fits of the share of the lnL gap between the input tree
    and the simulation truth that the fit closes, capped at 1.

    Both references use the simulation's parameters; the input tree, where
    the fits start, has the simulation's branch lengths doubled.  The truth
    is a point of every fit's parameter space, so a fit that reaches its
    maximum closes the whole gap and counts 1, whatever the seed's data; a
    fit that stops short of the truth counts less.  On a short gene the
    doubled tree can score close to the truth or above it; such a fit has
    no gap worth the name and is left out."""
    shares = []
    for name, test in tests.items():
        ref = reference[name]
        for k in ("0", "1"):
            start, truth = ref["input" + k], ref["truth" + k]
            if truth - start < MIN_GAP_LNL:
                continue
            lnl = test["h" + k]["lnL"]
            shares.append(min(1.0, (lnl - start) / (truth - start)))
    if not shares:
        raise ValueError(f"no fit's input tree is {MIN_GAP_LNL} lnL below "
                         "the truth")
    return statistics.mean(shares)


# --- one run ----------------------------------------------------------------

def prepare_workdir(tool, workload, seed):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run([str(tool), "gen", workload, str(seed), str(work)],
                   check=True, timeout=60)
    return work


def clear_outputs(work, stem):
    for name in (stem, stem + ".json", "scan.ckpt"):
        (work / name).unlink(missing_ok=True)


def cli_run(cli, work, ctl, stem, problems):
    """One CLI process on `ctl`; returns (tests or None, wall, rusage)."""
    clear_outputs(work, stem)
    code, wall, usage = run_process([str(cli), "--json", ctl], work,
                                    ctl + ".log", CLI_TIMEOUT_S)
    if code != 0:
        problems.append(f"{ctl}: slimcodeml_main exited {code}: "
                        + (work / (ctl + ".log")).read_text()[-400:])
        return None, wall, usage
    return read_tests(work / (stem + ".json")), wall, usage


def setup_samples(tool, work):
    """setup_s samples of one `e2ebench_tool setup` call (about 0.3 s)."""
    out = subprocess.run([str(tool), "setup", "run.ctl"], cwd=work, check=True,
                         text=True, capture_output=True, timeout=60).stdout
    return json.loads(out)["setup_s"]


def check_pass(tool, workload, work):
    out = subprocess.run([str(tool), "check", workload, "run.ctl"], cwd=work,
                         check=True, text=True, capture_output=True,
                         timeout=120).stdout
    return json.loads(out)


def check_checkpoint(check, bits, problems):
    """branch_scan: every fit the checkpoint recorded carries the report's
    exact lnL and agrees with the codeml-preset oracle."""
    for name, entry in check.get("checkpoint", {}).items():
        for k in ("0", "1"):
            if f"lnL{k}_hex" not in entry:
                problems.append(f"checkpoint lacks {name} H{k}")
                continue
            if name in bits and float.fromhex(entry[f"lnL{k}_hex"]).hex() != \
                    bits[name][int(k)]:
                problems.append(f"{name} H{k}: checkpoint lnL differs from "
                                "the report")
            if not entry[f"oracle{k}"] <= ORACLE_TOL:
                problems.append(f"{name} H{k}: codeml-preset lnL differs by "
                                f"{entry[f'oracle{k}']}")


def untraced(cli, tool, workload, work, seconds, problems):
    walls, tpm, cpus, rss = [], [], [], []
    first_bits, attempted, failed, tests = None, 0, 0, {}
    start = time.perf_counter()
    # Set-up is timed before and after every CLI run, so that its samples
    # spread over the run's whole span rather than one moment of the host.
    setups = setup_samples(tool, work)
    while True:
        tests, wall, usage = cli_run(cli, work, "run.ctl", "report.txt",
                                     problems)
        setups += setup_samples(tool, work)
        if tests is None:
            break
        bits = lnl_bits(tests)
        if first_bits is None:
            first_bits = bits
        check_same_lnls(first_bits, bits, "repeat run", problems)
        n_failed = sum(test_failed(t) for t in tests.values())
        attempted += len(tests)
        failed += n_failed
        walls.append(wall)
        tpm.append(60.0 * (len(tests) - n_failed) / wall)
        cpus.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss / 1024.0)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(walls) >= MIN_REPS) \
                or elapsed + wall > RUN_BUDGET_S - 40:
            break
    check = check_pass(tool, workload, work)
    if tests:
        check_report(tests,
                     expected_tasks(workload, check["reference"], problems),
                     problems)
        if workload == "branch_scan" and "checkpoint" not in check:
            problems.append("the check pass found no checkpoint")
        check_checkpoint(check, first_bits, problems)
    if problems or not walls:
        return attempted, failed, {}
    metrics = {
        "wall_s": statistics.median(walls),
        "tests_per_min": statistics.median(tpm),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "completed_frac": (attempted - failed) / attempted,
        "lnl_gap_closed": lnl_gap_closed(tests, check["reference"]),
    }
    return attempted, failed, metrics


def traced(cli, tool, workload, work, problems):
    tests, wall, _ = cli_run(cli, work, "run.ctl", "report.txt", problems)
    if tests is None:
        return 0, 0, {}
    bits = lnl_bits(tests)
    out = subprocess.run([str(tool), "trace", "run.ctl"], cwd=work,
                         check=True, text=True, capture_output=True,
                         timeout=RUN_BUDGET_S).stdout
    trace = json.loads(out)
    check_report(tests, expected_tasks(workload, trace["tests"], problems),
                 problems)
    traced_bits = {n: tuple(float.fromhex(t[k]).hex()
                            for k in ("lnL0_hex", "lnL1_hex"))
                   for n, t in trace["tests"].items()}
    check_same_lnls(bits, traced_bits, "traced run", problems)
    if not trace["oracle_max_abs_diff"] <= ORACLE_TOL:
        problems.append("codeml-preset lnL differs by "
                        f"{trace['oracle_max_abs_diff']}")
    if workload == "gene_fit":
        # The 4-thread pattern-parallel fit must equal the 1-thread one.
        t1, _, _ = cli_run(cli, work, "run_t1.ctl", "report_t1.txt", problems)
        if t1 is not None:
            check_same_lnls(bits, lnl_bits(t1), "threads = 1 run", problems)
    layers = dict(trace["layers"])
    layers["trace.overhead_frac"] = trace["traced_wall_s"] / wall - 1.0
    failed = sum(test_failed(t) for t in tests.values())
    return len(tests), failed, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        cli, tool = build()
        host = fingerprint(cli)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"cannot run: {e}")
        return 2
    log(f"host nproc={host['nproc']}, build: {host['version']}, "
        f"workload={args.workload}, seed={args.seed}, trace={args.trace}")

    problems = []
    attempted, failed, values = 0, 0, {}
    table = PER_LAYER if args.trace else END_TO_END
    units = {k: u for k, (u, _) in table.items()}
    try:
        work = prepare_workdir(tool, args.workload, args.seed)
        if args.trace:
            attempted, failed, values = traced(cli, tool, args.workload, work,
                                               problems)
        else:
            attempted, failed, values = untraced(
                cli, tool, args.workload, work, args.seconds, problems)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        # A crashed tool or an unreadable report is a wrong output.
        problems.append(f"{type(e).__name__}: {e}")
    for p in problems:
        log(f"check failed: {p}")
    # The fingerprint travels with every result, on the line before it.
    print("fingerprint: " + json.dumps(dict(host, workload=args.workload,
                                            seed=args.seed, trace=args.trace)))
    result = {
        "correct": not problems and set(values) == set(units),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
