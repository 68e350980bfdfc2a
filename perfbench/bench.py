"""The benchmark harness: set-up, the measured run and the command line.

Every instance runs as its own `python -m paracount.cli` process with
PYTHONPATH=src, one at a time (a closed loop with one client).  A run
repeats whole passes over the workload's instances within `--seconds`,
then checks every process's outcome against the reference.  Between
instances it also runs the host reference (`hostref.py`), and it scales its
timings by the reference's median, so that they follow the program and not
the shared host's speed.  The traced run is in `traced.py`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import hostref
import references as refs
from workloads import WORK, WORKLOADS, Instance, inputs_digest, known_defects

ROOT = Path(__file__).resolve().parent.parent
REF_DIR = Path("perfbench/ref")  # pinned references, committed
CACHE_DIR = Path("perfbench/cache")  # references built on first use of a seed
OUT_DIR = Path("perfbench/out")

SETUP_REPEATS = (7, 500)  # fewest and most set-ups in one timed slice
SETUP_SLICE_S = 0.3  # cheap set-ups repeat until this much is timed
STARTUP_SPAWNS = 5
TIMEOUT_S = 30  # one CLI process
RUN_BUDGET_S = 120  # instances not started by then fail, so a run ends in time
HOST_REF_EVERY_S = 1.0  # the host reference runs after an instance this long since it last ran
HOST_REF_NOMINAL_S = 0.2  # scaled timings are those of a host where the reference takes this
HOST_REF = Instance("host/reference", [])
HOST_REF_ARGS = ("perfbench/hostref.py",)

E2E_UNITS = {"wall_s": "s", "lat_p50_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}


# ---------------------------------------------------------------------------
# Instances on disk and their references
# ---------------------------------------------------------------------------


def write_files(instances: list[Instance]) -> None:
    """Bring the instance files on disk up to date.  A file that already
    holds its text is left alone: on ext4, truncating and rewriting a file
    forces it out to disk, which made set-up time the disk's."""
    for inst in instances:
        for name, text in inst.files.items():
            path = Path(name)
            try:
                if path.read_text(encoding="utf-8") == text:
                    continue
            except OSError:
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def build_reference(workload: str, seed: int, instances: list[Instance]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "inputs": inputs_digest(instances),
        "references": {inst.id: refs.expected(inst) for inst in instances},
    }


def ensure_reference(workload: str, seed: int, instances: list[Instance]) -> Path:
    """The pinned reference of this seed, else the cached one, built if missing."""
    digest = inputs_digest(instances)
    pinned = REF_DIR / f"{workload}-{seed}.json"
    if pinned.exists():
        if json.loads(pinned.read_text())["inputs"] != digest:
            raise SystemExit(f"{pinned} is stale: the generator changed; re-pin it with --pin")
        return pinned
    cached = CACHE_DIR / f"{workload}-{seed}.json"
    if not cached.exists() or json.loads(cached.read_text())["inputs"] != digest:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        cached.write_text(json.dumps(build_reference(workload, seed, instances), indent=1))
    return cached


def setup(workload: str, seed: int, ref_path: Path) -> tuple[list[Instance], dict]:
    """What a run needs before measuring: generated inputs on disk, the reference."""
    instances = WORKLOADS[workload](seed)
    write_files(instances)
    return instances, json.loads(ref_path.read_text())["references"]


def pin(seed: int) -> None:
    REF_DIR.mkdir(parents=True, exist_ok=True)
    commit = run_context("", seed)["git_commit"]
    for workload, generate in WORKLOADS.items():
        ref = build_reference(workload, seed, generate(seed))
        ref["pinnedAt"] = commit
        (REF_DIR / f"{workload}-{seed}.json").write_text(json.dumps(ref, indent=1))
        print(f"pinned {REF_DIR / f'{workload}-{seed}.json'}")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PARACOUNT_LIMIT"}
CHILD_ENV["PYTHONPATH"] = "src"


@dataclass
class Run:
    """One CLI process: exit code (None on timeout), output, latency, peak RSS."""

    inst: Instance
    code: int | None
    stdout: str
    stderr: str
    latency_s: float
    rss_mb: float


@contextmanager
def launcher():
    """A `spawn(instance, interpreter_args) -> Run` that runs a Python process
    through launcher.py: by default the CLI on the instance's argv."""
    Path(WORK).mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "perfbench/launcher.py"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=CHILD_ENV,
    )
    out, err = f"{WORK}/child.out", f"{WORK}/child.err"

    def spawn(inst: Instance, interpreter_args=("-m", "paracount.cli")) -> Run:
        request = {"argv": [*interpreter_args, *inst.argv], "stdout": out, "stderr": err,
                   "timeout": TIMEOUT_S}
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())
        return Run(inst, reply["code"], Path(out).read_text(encoding="utf-8"),
                   Path(err).read_text(encoding="utf-8"), reply["latency_s"], reply["rss_mb"])

    try:
        yield spawn
    finally:
        proc.stdin.close()
        proc.wait()


def closed_loop(spawn, instances: list[Instance], seconds: float,
                after_pass=lambda: None) -> tuple[list[Run], list[float], list, list[Run]]:
    """Whole passes within `seconds`: after each pass, one more starts only if
    a pass as long as the last one would end in time, so a run takes about
    `seconds` on a slow host as on a fast one (the first pass always runs).
    After the first instance, and after any that ends HOST_REF_EVERY_S or
    more since the host reference last ran, the reference runs once.
    Neither it nor `after_pass`, which runs after each pass, counts in the
    pass's time."""
    runs, pass_times, skipped, host = [], [], [], []
    start = time.perf_counter()
    last_ref = -math.inf
    while True:
        took, began_pass = 0.0, time.perf_counter()
        for inst in instances:
            began = time.perf_counter()
            if began - start > RUN_BUDGET_S:
                skipped.append((inst.id, f"not run: the {RUN_BUDGET_S} s run budget ran out"))
                continue
            runs.append(spawn(inst))
            ended = time.perf_counter()
            took += ended - began
            if ended - last_ref >= HOST_REF_EVERY_S:
                host.append(spawn(HOST_REF, HOST_REF_ARGS))
                last_ref = time.perf_counter()
        pass_times.append(took)
        after_pass()
        now = time.perf_counter()
        if now + (now - began_pass) - start > seconds:
            return runs, pass_times, skipped, host


def host_factor(host: list[Run]) -> tuple[float, list[tuple[str, str]]]:
    """How much slower than nominal the host ran: the median time of the
    host reference over HOST_REF_NOMINAL_S.  The shared host's speed moves
    by up to half in spells of seconds and drifts over minutes; the
    reference runs interleaved with the instances all through the run, so
    dividing a timing by this factor takes out what the spells and the drift
    did to the run as a whole.  Also the failures of reference runs."""
    failures = [(HOST_REF.id, f"exit {r.code}, printed {r.stdout.strip()!r}")
                for r in host if r.code != 0 or r.stdout.strip() != hostref.DIGEST]
    return statistics.median(r.latency_s for r in host) / HOST_REF_NOMINAL_S, failures


# ---------------------------------------------------------------------------
# Checking and summarising
# ---------------------------------------------------------------------------


def outcome_of(inst: Instance, code, stdout: str, stderr: str) -> str:
    try:
        return refs.observe(inst, code, stdout, stderr)
    except Exception as exc:  # a corrupt output must fail the instance, not the run
        return f"unreadable output: {exc!r}"


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples it rests on."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1], len(ordered)


def digest(pairs) -> str:
    text = "\n".join(f"{key}={value}" for key, value in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(results, reference: dict) -> tuple[list[tuple[str, str]], str]:
    """Failures (instance id, reason) and the digest of first outcomes."""
    failures, first = [], {}
    for inst, outcome in results:
        first.setdefault(inst.id, outcome)
        reason = refs.judge(reference[inst.id], outcome)
        if reason:
            failures.append((inst.id, reason))
    return failures, digest(first.items())


def run_context(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], capture_output=True, text=True).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain")) if commit else None
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "git_commit": commit, "git_dirty": dirty,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def timed_setups(workload: str, seed: int,
                 ref_path: Path) -> tuple[list[Instance], dict, list[float]]:
    """One slice of repeated set-ups, each timed."""
    times = []
    while len(times) < SETUP_REPEATS[0] or (
        sum(times) < SETUP_SLICE_S and len(times) < SETUP_REPEATS[1]
    ):
        began = time.perf_counter()
        instances, reference = setup(workload, seed, ref_path)
        times.append(time.perf_counter() - began)
    return instances, reference, times


def measured_run(workload: str, seed: int, seconds: float) -> dict:
    ref_path = ensure_reference(workload, seed, WORKLOADS[workload](seed))
    instances, reference, setup_times = timed_setups(workload, seed, ref_path)

    def set_up_again():
        # Slices spread over the run: on a shared host the CPU can slow down
        # for seconds at a time, and the smallest time wants a quiet spell.
        setup_times.extend(timed_setups(workload, seed, ref_path)[2])

    with launcher() as spawn:
        runs, pass_times, skipped, host = closed_loop(spawn, instances, seconds, set_up_again)
        known = check_known_defects(spawn) if workload == "small-batch" else None
    failures, counts = check(
        [(r.inst, outcome_of(r.inst, r.code, r.stdout, r.stderr)) for r in runs], reference
    )
    factor, host_failures = host_factor(host)
    failures += skipped + host_failures
    latencies = [r.latency_s * 1000 for r in runs]
    by_instance = {}
    for r in runs:
        by_instance.setdefault(r.inst.id, []).append(r.latency_s * 1000)
    p50, samples = percentile(latencies, 50)
    result = {
        "attempted": len(runs) + len(skipped),
        "failed": len(failures),
        "metrics": {
            "wall_s": statistics.median(pass_times) / factor,
            "lat_p50_ms": p50 / factor,
            "peak_rss_mb": max(r.rss_mb for r in runs),
            "setup_s": min(setup_times),
        },
        "unscaled": {"wall_s": statistics.median(pass_times), "lat_p50_ms": p50},
        "host_factor": factor,
        "host_ref_samples": len(host),
        "host_ref_ms": [r.latency_s * 1000 for r in host],
        "passes": len(pass_times),
        "latency_samples": samples,
        "instance_p50_ms": {k: statistics.median(v) for k, v in by_instance.items()},
        "failures": failures,
        "counts_digest": counts,
        "reference_digest": digest((k, refs.want(v)) for k, v in reference.items()),
    }
    if samples >= 100:  # p90 needs ten samples beyond it
        result["lat_p90_ms"] = percentile(latencies, 90)[0] / factor
    if known is not None:
        result["known_defects"] = known
    return result


def check_known_defects(spawn) -> list[dict]:
    """Run each known-defect input once, outside the measured loop."""
    defects = known_defects()
    write_files(defects)
    rows = []
    for inst in defects:
        r = spawn(inst)
        outcome = outcome_of(inst, r.code, r.stdout, r.stderr)
        reason = refs.judge({"error": inst.expect_error}, outcome)
        rows.append({"id": inst.id, "fixed": reason is None, "reason": reason})
    return rows


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def units(trace: int) -> dict[str, str]:
    if not trace:
        return E2E_UNITS
    from traced import layer_units

    return layer_units()


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    unit = units(trace)
    kind = "traced" if trace else "measured"
    print(f"== {workload} seed {seed} ({kind}): {result['attempted']} attempted, "
          f"{result['failed']} failed")
    if not trace:
        for name, value in result["metrics"].items():
            print(f"  {name:<14} {value:12.4f} {unit[name]}")
        print(f"  wall_s and the latencies are divided by the host factor "
              f"{result['host_factor']:.4f} (median of {result['host_ref_samples']} host "
              f"reference runs over {HOST_REF_NOMINAL_S} s); unscaled: " + ", ".join(
                  f"{k}={v:.4f}" for k, v in result["unscaled"].items()))
        if "lat_p90_ms" in result:
            print(f"  {'lat_p90_ms':<14} {result['lat_p90_ms']:12.4f} ms "
                  f"({result['latency_samples']} samples)")
        print(f"  {'fail_ratio':<14} {result['failed'] / result['attempted']:12.4f} "
              f"({result['passes']} passes, {result['latency_samples']} processes)")
        print(f"  counts digest {result['counts_digest']} "
              f"(reference {result['reference_digest']})")
        for row in result.get("known_defects", []):
            state = "fixed" if row["fixed"] else f"still present: {row['reason']}"
            print(f"  known defect {row['id']}: {state}")
    else:
        print(f"  counts digest {result['counts_digest']}; largest self times "
              f"on the workload's own instances:")
        for ms, name in result["top_self_ms"]:
            print(f"    {name:<34} {ms:10.1f} ms")
    for inst_id, reason in result["failures"]:
        print(f"  FAILED {inst_id}: {reason}")
    print("  context: " + ", ".join(f"{k}={v}" for k, v in result["context"].items()))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        from traced import traced_run

        result = traced_run(workload, seed)
    else:
        result = measured_run(workload, seed, seconds)
    result["context"] = run_context(workload, seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, default=str)
    )
    report(workload, seed, trace, result)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write the references of --seed into perfbench/ref")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.pin:
        pin(args.seed)
        return 0
    everything = args.workload == "all"
    plan = [(w, t) for w in WORKLOADS for t in (0, 1)] if everything else [
        (args.workload, args.trace)]
    results = {(w, t): run_one(w, args.seed, args.seconds, t) for w, t in plan}
    metrics = {}
    for (workload, trace), result in results.items():
        if everything and trace:
            continue
        prefix = f"{workload}." if everything else ""
        metrics.update({prefix + name: {"value": value, "unit": units(trace)[name]}
                        for name, value in result["metrics"].items()})
    if everything:
        print(f"== summary, seed {args.seed}: end-to-end metrics per workload")
        for (workload, trace), result in results.items():
            if not trace:
                print(f"  {workload:<13}" + "  ".join(
                    f"{k}={v:.4f} {E2E_UNITS[k]}" for k, v in result["metrics"].items())
                    + f"  fail_ratio={result['failed']}/{result['attempted']}")
        failures = [f for result in results.values() for f in result["failures"]]
        print(f"== failed instances: {len(failures)}")
        for inst_id, reason in failures:
            print(f"  {inst_id}: {reason}")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
