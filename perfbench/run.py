#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mopc/mopcd (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the program from
source into .bench_build/, runs one workload and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it record the host and the workload's details.
"""

import argparse
import json
import os
import random
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("svc-hot", "svc-cold", "verify", "monitor")
BUILD = ".bench_build"
WS = os.path.join(BUILD, "ws")
PROGRAM_DIRS = ("lib", "bin")
HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds after the build by which every child is killed, so that a
# hung run still ends within three minutes.
RUN_LIMIT = 170
deadline = time.monotonic() + RUN_LIMIT


# ---- build -----------------------------------------------------------


def copy_if_changed(src, dst):
    with open(src, "rb") as fh:
        data = fh.read()
    try:
        with open(dst, "rb") as fh:
            if fh.read() == data:
                return
    except OSError:
        pass
    with open(dst, "wb") as fh:
        fh.write(data)


def mirror(src, dst, recurse):
    """Make dst's files equal to src's (and its subtrees too, with
    recurse), rewriting only changed files so that dune's incremental
    build stays warm. dst's own subdirectories are left alone unless
    recurse is set."""
    os.makedirs(dst, exist_ok=True)
    names = set()
    for name in os.listdir(src):
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isfile(s):
            names.add(name)
            copy_if_changed(s, d)
        elif recurse and os.path.isdir(s) and not name.startswith((".", "_")):
            names.add(name)
            mirror(s, d, True)
    for name in os.listdir(dst):
        d = os.path.join(dst, name)
        if name not in names and (os.path.isfile(d) or recurse):
            if os.path.isdir(d):
                shutil.rmtree(d)
            else:
                os.remove(d)


def build():
    """The benchmark's dune project (perfbench/ml) with the repository's
    lib/ and bin/ copied beside it, built in .bench_build/ws."""
    for d in PROGRAM_DIRS:
        if not os.path.isdir(d):
            raise SystemExit(
                "perfbench: no %s/ here; run from the root of a checkout" % d)
    dune = shutil.which("dune")
    if dune is None:
        raise SystemExit("perfbench: dune not found on PATH")
    mirror(os.path.join(HERE, "ml"), WS, False)
    for d in PROGRAM_DIRS:
        mirror(d, os.path.join(WS, d), True)
    targets = ["./pb.exe", "./bin/mopc.exe", "./bin/mopcd.exe"]
    proc = subprocess.run(
        [dune, "build", "--root", WS] + targets,
        stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")
    out = os.path.join(WS, "_build", "default")
    return {
        "pb": os.path.join(out, "pb.exe"),
        "mopc": os.path.join(out, "bin", "mopc.exe"),
        "mopcd": os.path.join(out, "bin", "mopcd.exe"),
    }


# ---- child processes -------------------------------------------------

CHILDREN = set()


def kill_children():
    for p in list(CHILDREN):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            p.wait()
        except OSError:
            pass
        CHILDREN.discard(p)


def run_child(argv):
    """Run argv in its own process group; return (stdout, returncode,
    wall seconds, peak RSS in MiB from wait4). The group is killed when
    the child ends or the deadline passes, so no grandchild (a daemon)
    outlives it."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    CHILDREN.add(p)
    try:
        out = read_until_eof(p)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except OSError:
            pass
        if p.returncode is None:
            p.wait()
        p.stdout.close()
        CHILDREN.discard(p)
    return out.decode(), p.returncode, wall, ru.ru_maxrss / 1024.0


def read_until_eof(p):
    sel = selectors.DefaultSelector()
    sel.register(p.stdout, selectors.EVENT_READ)
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("%s timed out" % p.args[0])
        if sel.select(left):
            data = os.read(p.stdout.fileno(), 65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def pb_lines(bins, argv):
    out, code, _wall, _rss = run_child([bins["pb"]] + argv)
    if code != 0:
        raise SystemExit("perfbench: pb.exe %s exited with %d" % (argv[0], code))
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit("perfbench: pb.exe printed no result")
    return lines


# ---- the verify workload ----------------------------------------------

# Members of each lattice point over the 125,768-run universe: the same
# for every predicate.
MODEL_MEMBERS = {
    "rsc": 41432, "ksync2": 69860, "ksync3": 98696, "fifo-nn": 63364,
    "causal": 63364, "fifo-1n": 63364, "fifo-n1": 63364, "fifo-11": 67000,
    "async": 125768,
}
MODEL_ORDER = list(MODEL_MEMBERS)

# Catalog predicates placed by `mopc lattice`: |X_B| and |X_M ∩ X_B| in
# MODEL_ORDER.
LATTICE = {
    "x.s < y.s & y.r < x.r":
        (63364, [41432, 50476, 58684, 63364, 63364, 63364, 63364, 63364,
                 63364]),
    "x.s < y.s & y.r < x.r & src(x) = src(y)":
        (63364, [41432, 50476, 58684, 63364, 63364, 63364, 63364, 63364,
                 63364]),
    "x.s < y.r & y.s < x.r":
        (42212, [41432, 41432, 42068, 42212, 42212, 42212, 42212, 42212,
                 42212]),
    "x.r < y.s & y.r < z.s & z.r < x.s":
        (125768, [41432, 69860, 98696, 63364, 63364, 63364, 63364, 67000,
                  125768]),
}

OK_LINES = 4


def universe_check(runs, sync, co):
    line = "universe: %d runs, |X_sync| = %d, |X_co| = %d" % (runs, sync, co)

    def check(out):
        lines = out.splitlines()
        return (line in lines
                and sum(1 for l in lines if l.startswith("[ok]")) == OK_LINES
                and not any(l.startswith("[FAIL") for l in lines))
    return check


ROW = re.compile(r"^\s+(\S+)\s+\|X_M\| =\s+(\d+)\s+\|X_M ∩ X_B\| =\s+(\d+)")


def lattice_check(pred):
    spec, inters = LATTICE[pred]

    def check(out):
        if "universe: 125768 runs, |X_B| = %d" % spec not in out.splitlines():
            return False
        rows = [ROW.match(l) for l in out.splitlines()]
        rows = [(m.group(1), int(m.group(2)), int(m.group(3)))
                for m in rows if m]
        want = [(name, MODEL_MEMBERS[name], i)
                for name, i in zip(MODEL_ORDER, inters)]
        return rows == want
    return check


def explore_check(out):
    lines = [l.strip() for l in out.splitlines()]
    return ("fifo on uniform (2 procs, 6 msgs, seed 42): 207900 executions, "
            "175 distinct user views" in lines
            and "155 views in X_co - X_sync" in lines
            and "20 views in X_sync" in lines)


# (metric group, argv after `mopc`, output check); explore runs with a
# budget above its 207,900 executions, so the search is never truncated.
VERIFY = (
    [("universe", ["universe", "--deep"],
      universe_check(940304, 418136, 572764)),
     ("vast", ["universe", "--vast", "--sym"],
      universe_check(77830564, 23179456, 37542704))]
    + [("lattice", ["lattice", p], lattice_check(p)) for p in LATTICE]
    + [("explore", ["explore", "-p", "fifo", "-n", "2", "-m", "6",
                    "--max", "250000"], explore_check)]
)

SETUP_CHECK = universe_check(2804, 1424, 1840)


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i >= len(xs) - 1:
        return xs[-1]
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def mopc(bins, argv, jobs=None):
    extra = [] if jobs is None else ["--jobs", str(jobs)]
    return run_child([bins["mopc"]] + argv + extra)


def verify(bins, seed, seconds):
    # set-up: start the binary on its smallest universe, 11 times
    setups, setup_ok = [], True
    for _ in range(11):
        out, code, wall, _ = mopc(bins, ["universe"])
        setups.append(wall)
        setup_ok = setup_ok and code == 0 and SETUP_CHECK(out)
    rng = random.Random(seed)
    order = list(range(len(VERIFY)))
    walls, groups, rss, schedule = {}, {}, 0.0, []
    attempted = failed = 0
    cli_jobs = None
    t_start = time.perf_counter()
    while not schedule or time.perf_counter() - t_start < seconds:
        rng.shuffle(order)
        schedule.append(list(order))
        for i in order:
            group, argv, check = VERIFY[i]
            attempted += 1
            try:
                out, code, wall, peak = mopc(bins, argv)
            except TimeoutError:
                failed += 1
                continue
            m = re.search(r"jobs: (\d+)", out)
            if m:
                cli_jobs = int(m.group(1))
            rss = max(rss, peak)
            if code != 0 or not check(out):
                failed += 1
                continue
            walls.setdefault(i, []).append(wall)
            groups.setdefault(group, []).append(wall)
    elapsed = time.perf_counter() - t_start
    # A pass is the seven commands; its typical and worst times are the
    # sums of each command's median and slowest wall, which a single
    # disturbed command moves far less than it moves one pass.
    typical = sum(quantile(ws, 0.5) for ws in walls.values())
    worst = sum(max(ws) for ws in walls.values())
    result = {
        "correct": failed == 0 and setup_ok and len(walls) == len(VERIFY),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": quantile(setups, 0.5), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / elapsed,
                          "unit": "1/s"},
            "latency_p50_us": {"value": typical * 1e6, "unit": "us"},
            "latency_tail_us": {"value": worst * 1e6, "unit": "us"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }
    detail = {
        "inputs": "pass order drawn from the seed: %s" % schedule,
        "passes": len(schedule),
        "cli_jobs": cli_jobs,
        "wall_s": elapsed,
    }
    for g, ws in groups.items():
        detail[g + "_s"] = quantile(ws, 0.5)
    return detail, result


# ---- per-layer: the parallel speed-up of each verify command ----------


def speedups(bins):
    """Wall at --jobs 1 over wall at the default jobs, per command."""
    out = {}
    for group, argv, check in VERIFY:
        key = "par.speedup." + group
        if key in out:
            continue
        w = {}
        for jobs in (1, None):
            text, code, wall, _ = mopc(bins, argv, jobs)
            if code != 0 or not check(text):
                raise SystemExit("perfbench: wrong output from mopc %s"
                                 % " ".join(argv))
            w[jobs] = wall
        out[key] = {"value": w[1] / w[None], "unit": "x"}
    return out


# ---- main --------------------------------------------------------------


def main():
    global deadline
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def on_signal(signum, _frame):
        raise SystemExit("perfbench: signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        bins = build()
        deadline = time.monotonic() + RUN_LIMIT
        os.makedirs(os.path.join(BUILD, "run"), exist_ok=True)
        host = pb_lines(bins, ["host"])[-1]
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--mopcd", bins["mopcd"]]
        if args.trace:
            result = pb_lines(bins, [args.workload, "--trace"] + common)[-1]
            result["metrics"].update(speedups(bins))
            print(json.dumps({"host": host, "workload": args.workload,
                              "seed": args.seed}))
        elif args.workload == "verify":
            detail, result = verify(bins, args.seed, args.seconds)
            print(json.dumps({"host": host, "detail": detail}))
        else:
            lines = pb_lines(bins, [args.workload] + common)
            print(json.dumps(lines[-2]))
            result = lines[-1]
        print(json.dumps(result), flush=True)
    finally:
        kill_children()


if __name__ == "__main__":
    main()
