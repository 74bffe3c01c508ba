"""The workload process: one closed loop over the generated cases.

    python3 perfbench/worker.py --inputs IN.json --out OUT.json --seconds S [--trace SPANS]
    python3 perfbench/worker.py --probe IN.json
    python3 perfbench/worker.py --memory IN.json --out OUT.json

It imports nullsatz from the checkout's src/, loads the inputs, warms every
layer the workload uses, then runs whole rounds of cases, one case at a time,
until S seconds have passed.  Every report goes to OUT.json for the checks,
which run in the parent process, outside the timed region.

With --trace the same rounds run a second time with the tracer installed;
the traced reports must equal the untraced ones byte for byte, and the spans
go to SPANS.  --probe stops once the inputs are loaded, printing "ready":
the parent times it from a fresh interpreter to take set-up time.
--memory runs the inputs' memory cases once each, untimed, and reports the
peak resident set size of this process with them; the parent starts it
with the allocator's mmap threshold held fixed (see README).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_package():
    if not (SRC / "nullsatz" / "__init__.py").is_file():
        sys.exit(f"worker: no nullsatz package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nullsatz
    import nullsatz.cli  # noqa: F401  (the package does not import it)

    if Path(nullsatz.__file__).resolve().parent != SRC / "nullsatz":
        sys.exit(f"worker: imported nullsatz from {nullsatz.__file__}, not {SRC}")
    return nullsatz


def build_case(pkg, case):
    """A callable returning (status, report text) for one case.

    The package functions are looked up at call time, so the tracer's
    wrappers are the ones called in the traced pass.
    """
    if "argv" in case:
        argv = list(case["argv"])

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = pkg.cli.main(list(argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    code = f"usage error {exc.code}: {err.getvalue().strip()}"
            return code, out.getvalue()

        return run

    gens = [pkg.poly_from_json(g) for g in case["generators"]]
    domain = pkg.DomainSpec(p=case["domain"][0], q=case["domain"][1])

    def run():
        try:
            verdict = pkg.classify(gens, domain, seed=0)
        except Exception as exc:  # a raising case is a failed operation
            return f"{type(exc).__name__}: {exc}", ""
        return 0, json.dumps(verdict.to_json_dict(), sort_keys=True, indent=2)

    return run


def load(pkg, path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rounds = [[(c["id"], build_case(pkg, c)) for c in r] for r in doc["rounds"]]
    warmup = [build_case(pkg, c) for c in doc["warmup"]]
    cli_cases = {c["id"] for r in doc["rounds"] for c in r if "argv" in c}
    return rounds, warmup, cli_cases, doc["memory"]


MIN_ROUNDS = 2  # a curves round takes about 14 s: never stop after one


def closed_loop(rounds, seconds=None, n_rounds=None, tracer=None):
    """Whole rounds, cycling through the generated ones, until time is up.

    At least MIN_ROUNDS rounds, so that a slow phase of the machine does not
    halve the work of a run whose round is close to its time budget.
    """
    results = []
    done = 0
    start = time.perf_counter()
    while True:
        for case_id, run in rounds[done % len(rounds)]:
            if tracer is not None:
                tracer.begin_case(case_id)
            t0 = time.perf_counter()
            status, report = run()
            results.append((case_id, time.perf_counter() - t0, status, report))
        done += 1
        if n_rounds is not None:
            if done == n_rounds:
                break
        elif done >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start, done, results


def peak_rss_mb() -> float:
    """VmHWM of this process image; ru_maxrss where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", help="load these inputs, print ready, exit")
    ap.add_argument("--memory", help="run these inputs' memory cases once each")
    ap.add_argument("--inputs")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", help="also run a traced pass; write spans here")
    args = ap.parse_args(argv)
    os.environ.pop("NULLSATZ_SEED", None)  # reports depend on the inputs only

    pkg = import_package()
    if args.probe:
        load(pkg, args.probe)
        print("ready", flush=True)
        return 0

    if args.memory:
        rounds, _, _, memory = load(pkg, args.memory)
        runs = dict(case for r in rounds for case in r)
        cases = []
        for cid in memory:
            status, report = runs[cid]()
            cases.append({"id": cid, "status": status, "report": report})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_mb": peak_rss_mb(), "cases": cases}, fh)
        return 0

    rounds, warmup, cli_cases, _ = load(pkg, args.inputs)
    for run in warmup:
        run()
    pass_s, n_rounds, results = closed_loop(rounds, seconds=args.seconds)
    out = {
        "pass_s": pass_s,
        "rounds": n_rounds,
        "cases": [
            {"id": cid, "seconds": dt, "status": st, "report": rep}
            for cid, dt, st, rep in results
        ],
    }

    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(pkg)
        tracer.install()
        try:
            traced_s, _, traced = closed_loop(rounds, n_rounds=n_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        mismatched = [
            cid for (cid, _, st, rep), (_, _, st2, rep2) in zip(results, traced)
            if (st, rep) != (st2, rep2)
        ]
        cli_bytes = sum(
            len(rep.encode()) for cid, _, _, rep in traced if cid in cli_cases
        )
        out["trace"] = {
            "pass_s": traced_s,
            "mismatched": mismatched,
            "modules": tracer.modules_seen(),
            "layers": tracer.layer_metrics(len(traced), cli_bytes),
        }
        tracer.dump(args.trace)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
