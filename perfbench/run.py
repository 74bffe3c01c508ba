"""Benchmark for nullsatz: three closed-loop workloads, checked answers.

    python3 perfbench/run.py --workload curves|points|certify --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the inputs (perfbench/
inputs.py), which are written under perfbench/out/ before anything is
timed.  A worker process (perfbench/worker.py) runs whole rounds of cases
for S seconds, one case at a time; every report is then checked here
against independent computations (perfbench/checks.py).  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics.
With --trace 0 those are the end-to-end metrics, taken untraced, with peak
memory from a second, untimed worker that runs the first round's memory
cases; with --trace 1 the per-layer metrics of a traced pass over the same
rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))  # also under python -P / PYTHONSAFEPATH

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_PROBES = 5
# The memory pass holds glibc's mmap threshold at its starting value, 128 KiB,
# so every large array is mapped on its own and unmapped when freed, and the
# peak follows the program's live memory, not the heap's history (README).
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
IMPORTTIME_PROBES = 3
DEADLINE_S = 170.0  # a run must end well inside 180 s
IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cli_argv(workload: str, case: dict, casedir: Path) -> list[str]:
    path = casedir / f"{case['id']}.json"
    rel = str(path.relative_to(ROOT))
    if workload == "points":
        path.write_text(json.dumps({"generators": case["generators"]}), encoding="utf-8")
        dom = inputs.DOMAIN_ARG[tuple(case["domain"])]
        return ["classify", "--ideal", rel, "--domain", dom, "--seed", "0"]
    cmd = case["command"]
    dom = inputs.DOMAIN_ARG[tuple(case["domain"])]
    if cmd == "norms":
        return ["norms", "--max-degree", str(case["max_degree"]), "--domain", dom]
    path.write_text(json.dumps(case["poly"]), encoding="utf-8")
    argv = [cmd, "--poly", rel]
    if cmd == "hopf":
        return argv + ["--ratio", "--seed", "0"]
    argv += ["--domain", dom, "--seed", "0"]
    if "witness" in case:
        argv.append("--witness=" + ",".join(repr(x) for x in case["witness"]))
    return argv


def write_inputs(workload: str, seed: int, outdir: Path):
    """inputs.json for the worker; returns {case id: (expectation, case)}."""
    rounds, expects = inputs.make_rounds(workload, seed)
    warmup = inputs.make_warmup(workload)
    for i, case in enumerate(warmup):
        case["id"] = f"warmup{i}"
    casedir = outdir / "cases"
    casedir.mkdir(parents=True)

    def worker_form(case):
        if workload == "curves":  # library classify on the parsed generators
            return {k: case[k] for k in ("id", "generators", "domain")}
        return {"id": case["id"], "argv": cli_argv(workload, case, casedir)}

    doc = {
        "rounds": [[worker_form(c) for c in cases] for cases in rounds],
        "warmup": [worker_form(c) for c in warmup],
        "memory": inputs.memory_ids(workload),
    }
    path = outdir / "inputs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    table = {
        exp["id"]: (exp, case)
        for cases, exps in zip(rounds, expects)
        for case, exp in zip(cases, exps)
    }
    return path, table


def spawn(args: list[str], deadline: float, **kw) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(args[1:3]))
    try:
        return subprocess.run(args, cwd=ROOT, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(args[1:3])}")


def setup_seconds(inputs_json: Path, deadline: float) -> float:
    """Median over fresh interpreters of the time to import and load inputs."""
    times = []
    cmd = [sys.executable, str(HERE / "worker.py"), "--probe", str(inputs_json)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail("set-up probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return statistics.median(times)


def import_seconds(deadline: float) -> dict[str, float]:
    """setup.import_* from python -X importtime, median of a few interpreters."""
    code = "import sys; sys.path.insert(0, 'src'); import nullsatz"
    samples: dict[str, list[float]] = {"scipy": [], "numpy": [], "nullsatz": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = spawn([sys.executable, "-X", "importtime", "-c", code], deadline,
                     capture_output=True, text=True)
        if proc.returncode != 0:
            fail("importing nullsatz failed:\n" + proc.stderr[-2000:])
        own = {"scipy": 0, "numpy": 0, "nullsatz": 0}
        for line in proc.stderr.splitlines():
            m = IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cum_us, _, name = int(m[1]), int(m[2]), m[3], m[4]
            top = name.split(".")[0]
            if top in ("scipy", "numpy"):
                own[top] += self_us
            elif name == "nullsatz":
                own["nullsatz"] = cum_us
        for k, v in own.items():
            samples[k].append(v / 1e6)
    return {f"setup.import_{k}_s": statistics.median(v) for k, v in samples.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="nullsatz benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(inputs.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nullsatz" / "__init__.py").is_file():
        fail(f"run from a checkout of nullsatz: no src/nullsatz under {ROOT}")

    outdir = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    inputs_json, table = write_inputs(args.workload, args.seed, outdir)

    if args.trace:
        metrics_extra = import_seconds(deadline)
        setup = None
    else:
        metrics_extra = {}
        setup = setup_seconds(inputs_json, deadline)

    out_json = outdir / "reports.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs_json),
           "--out", str(out_json), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(outdir / "spans.jsonl")]
    proc = spawn(cmd, deadline)
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}")
    result = json.loads(out_json.read_text(encoding="utf-8"))

    memory = None
    if not args.trace:
        mem_json = outdir / "memory.json"
        proc = spawn([sys.executable, str(HERE / "worker.py"), "--memory",
                      str(inputs_json), "--out", str(mem_json)], deadline,
                     env={**os.environ, **MEMORY_ENV})
        if proc.returncode != 0:
            fail(f"memory pass exited {proc.returncode}")
        memory = json.loads(mem_json.read_text(encoding="utf-8"))

    # -- checks, outside the timed region ---------------------------------
    check = checks.CHECKS[args.workload]
    verdicts: dict[tuple, list[str]] = {}
    failed, unexpected, passing = 0, [], {}
    for c in result["cases"]:
        exp, case = table[c["id"]]
        key = (c["id"], c["status"], c["report"])
        if key not in verdicts:
            verdicts[key] = check(exp, case, c["status"], c["report"])
        problems = verdicts[key]
        if problems:
            failed += 1
            if not exp.get("known_fault"):
                unexpected.append((c["id"], problems))
        else:
            passing[c["id"]] = (exp, case, c["status"], c["report"])
    misses = checks.tamper_misses(args.workload, list(passing.values()))
    mismatched = result.get("trace", {}).get("mismatched", [])
    if memory is not None:  # the allocator setting must not change a report
        timed = {c["id"]: (c["status"], c["report"]) for c in result["cases"]}
        mismatched += [c["id"] for c in memory["cases"]
                       if timed.get(c["id"], (c["status"], c["report"]))
                       != (c["status"], c["report"])]
    correct = not unexpected and not misses and not mismatched

    for cid, problems in unexpected:
        print(f"perfbench: {cid}: {'; '.join(problems)}", file=sys.stderr)
    for m in misses:
        print(f"perfbench: tamper not caught: {m}", file=sys.stderr)
    for cid in mismatched:
        print(f"perfbench: report differs between passes for {cid}", file=sys.stderr)

    attempted = len(result["cases"])
    if args.trace:
        t = result["trace"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in t["layers"].items()}
        metrics.update({k: {"value": v, "unit": "s"} for k, v in metrics_extra.items()})
        print(f"perfbench: traced pass {t['pass_s']:.3f} s, untraced "
              f"{result['pass_s']:.3f} s, spans per module {t['modules']}",
              file=sys.stderr)
    else:
        times = [c["seconds"] for c in result["cases"]]
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "cases_per_s": {"value": attempted / result["pass_s"], "unit": "1/s"},
            "case_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": memory["peak_rss_mb"], "unit": "MB"},
        }
        print(f"perfbench: {attempted} cases in {result['rounds']} rounds, "
              f"{result['pass_s']:.3f} s", file=sys.stderr)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(line), encoding="utf-8")
    print(json.dumps(line))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s/case"
    if name == "rootfind.step_accept_ratio":
        return "ratio"
    if name == "cli.report_bytes":
        return "B/case"
    return "count/case"


if __name__ == "__main__":
    sys.exit(main())
