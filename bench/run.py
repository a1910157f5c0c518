"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

A run is a closed loop with one client in this one process: it sends each
request of the workload's corpus (bench/corpus/<workload>.json) to
`ut4class.cli.main` with standard input and output redirected, and sends
the next only when the previous has returned.  It repeats whole rounds of
the same requests, in an order the seed shuffles, until --seconds have
passed.  --trace 1 runs one round with every layer wrapped and prints the
per-layer metrics instead; its spans go to bench/out/.

Set-up is the median time a fresh interpreter takes to import
ut4class.cli.  The first samples are taken before this process imports
ut4class, and more between rounds, so that the median spans the whole
run rather than one stretch of the host's speed.  Time spent on them is
not run time.

Every response is checked (see checks.py).  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

from checks import Checker
from stats import median, percentile, rate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_FIRST, SETUP_PER_ROUND = 3, 2
SETUP_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import ut4class.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def measure_setup(n: int) -> list[float]:
    """Import times of ut4class.cli in n fresh interpreters."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit("importing ut4class.cli failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def load_corpus(workload: str) -> dict:
    path = os.path.join(HERE, "corpus", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def plan(corpus: dict, rng: random.Random) -> list:
    """The requests of one round: per group, the seed's pick of variants.
    A known-fault group is sent in full, so that the failed requests are
    the same whatever the seed."""
    out = []
    for group in corpus["groups"]:
        chosen = set(rng.sample(range(corpus["variants"]), corpus["pick"]))
        for req in group["requests"]:
            if req["variant"] in chosen or "known_fault" in group:
                text = json.dumps(req["payload"], sort_keys=True)
                out += [(group, req, text)] * req.get("times", 1)
    return out


def send(cli, req: dict, text: str):
    """One request through the CLI entry point:
    (exit code, stdout, stderr, seconds)."""
    argv = [req["command"], "-", "--json", *req["flags"]]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = (io.StringIO(text), io.StringIO(),
                                         io.StringIO())
    out, err = sys.stdout, sys.stderr
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:        # argparse refusing the command line
        rc = exc.code
    except Exception as exc:         # a traceback is a failed request
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue(), elapsed


def index_of(group: dict, req: dict) -> int:
    """Subgroup index of a (3,2) request that decides irreducibility."""
    decides = req["command"] in ("irreducible", "stratum") or (
        req["command"] == "classify" and "values" in req["payload"])
    return group.get("index", 0) if decides else 0


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "ut4class", "cli.py")):
        raise SystemExit(f"no ut4class sources under {SRC}")
    corpus = load_corpus(args.workload)
    setup = [] if args.trace else measure_setup(SETUP_FIRST)

    sys.path.insert(0, SRC)
    from ut4class import (cases, characters, classify, cli, core, intlin,
                          oracle, subgroup)

    rng = random.Random(args.seed)
    requests = plan(corpus, rng)
    checker = Checker()
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "classify": classify, "cases": cases,
                        "oracle": oracle, "characters": characters,
                        "subgroup": subgroup, "intlin": intlin, "core": core})

    latencies, round_walls = [], []
    attempted = failed = answered = index_sum = tuples = 0
    while True:
        order = list(range(len(requests)))
        rng.shuffle(order)
        t_round = time.perf_counter()
        for i in order:
            group, req, text = requests[i]
            if tracer is not None:
                tracer.current_request = attempted
            rc, out, err, elapsed = send(cli, req, text)
            attempted += 1
            reply, good = checker.check(group, req, text, rc, out, err)
            # a failed request misses every latency limit
            latencies.append(math.inf if reply is None else elapsed)
            if reply is None:
                failed += 1
            elif good:
                answered += 1
                index_sum += index_of(group, req)
                tuples += reply.get("params_checked", 0)
        round_walls.append(time.perf_counter() - t_round)
        if tracer is not None:
            break
        setup += measure_setup(SETUP_PER_ROUND)
        if sum(round_walls) >= args.seconds:
            break
    run_s = sum(round_walls)

    if tracer is not None:
        tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.tsv"))
        metrics = tracer.metrics(index_sum)
    else:
        metrics = {
            "setup_s": (median(setup), "s"),
            "requests_per_s": (rate(answered, run_s), "1/s"),
            "index_per_s": (rate(index_sum, run_s), "1/s"),
            "tuples_per_s": (rate(tuples, run_s), "1/s"),
            "latency_p50_ms": (1e3 * median(latencies), "ms"),
            "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    for err in checker.errors[:20]:
        print("check failed:", err, file=sys.stderr)
    print(f"{args.workload}: {len(round_walls)} round(s) of {len(requests)} "
          f"requests, round wall s {[round(w, 3) for w in round_walls]}, "
          f"run {run_s:.3f} s", file=sys.stderr)
    return {"correct": checker.ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("decide", "scan32", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
