"""End-to-end benchmark of the mckay-moduli command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from ./src).
One client runs the workload's jobs one at a time (a closed loop), each in a
fresh interpreter.  The S seconds are shared evenly among the jobs: each job
runs, in rounds over the list, until it has used its share, at least once
and at most MAX_REPEATS times, and its time is the median of those runs.
Every job's output then goes through the correctness gate (gate.py);
documents that need a second computation to check (the type polyhedron
behind a rep, the oracle twin of a --lifted fan) get it here, outside the
timed region.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
runs every job once plainly and once through shim.py with the layers
traced, checks that both print the same document, and prints the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object; a per-job record with document digests goes to
.perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
MAX_REPEATS = 5
JOB_TIMEOUT_S = 60.0
# Hard limit on one benchmark run, below the 180 s a run may take.
RUN_DEADLINE_S = 165.0


class Checkout:
    """Runs processes of the program found under ROOT/src, within one deadline."""

    def __init__(self, root, deadline):
        self.root = root
        self.src = root / "src"
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self._count = 0

    def execute(self, cmd, timeout=JOB_TIMEOUT_S):
        """Run cmd to completion; returns a dict with wall time, rusage and output."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"code": None, "timed_out": True, "wall_s": 0.0, "rss_kb": 0,
                    "stdout": "", "stderr": "not started: run deadline"}
        self._count += 1
        out_path = self.tmp / f"{self._count}.out"
        err_path = self.tmp / f"{self._count}.err"
        timed_out = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)

            def kill():
                timed_out.append(True)
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # Reaped here by wait4, so tell Popen it is done.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "timed_out": bool(timed_out),
            "wall_s": wall,
            "rss_kb": usage.ru_maxrss,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text()[-400:],
        }

    def cli(self, argv):
        return self.execute([sys.executable, "-m", "mckay_moduli.cli", *argv])

    def traced_cli(self, argv, job_id):
        path = self.tmp / f"spans-{job_id}.json"
        res = self.execute([sys.executable, str(HERE / "shim.py"), str(path), job_id, *argv])
        res["spans"] = json.loads(path.read_text())["spans"] if path.exists() else None
        return res

    def import_seconds(self):
        """Wall time of a fresh interpreter importing mckay_moduli.cli."""
        res = self.execute([sys.executable, "-c", "import mckay_moduli.cli"])
        if res["code"] != 0:
            raise SystemExit(f"error: cannot import mckay_moduli.cli: {res['stderr']}")
        return res["wall_s"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def job_key(argv):
    return " ".join(argv)


def run_jobs(co, jobs, trace, share_s):
    """Run the job list in a closed loop; returns (executions, set-up times).

    Untraced, the list is run in rounds, every other round backwards, and a
    job stays in the next round until its runs add up to share_s seconds (at
    most MAX_REPEATS runs).  Spreading a job's runs over the whole loop keeps
    one slow spell of a shared machine from setting its time; for the same
    reason a set-up sample (a bare import) precedes every job run.  Traced,
    each job runs once plainly and once traced, the order alternating by job.
    """
    execs = []
    setup = []
    if trace:
        for j, argv in enumerate(jobs):
            for kind in ("plain", "traced") if j % 2 else ("traced", "plain"):
                if kind == "plain":
                    res = co.cli(argv)
                else:
                    res = co.traced_cli(argv, str(j))
                execs.append(dict(res, job=j, kind=kind))
        return execs, setup
    used = [0.0] * len(jobs)
    todo = list(range(len(jobs)))
    for rnd in range(MAX_REPEATS):
        for j in todo if rnd % 2 == 0 else todo[::-1]:
            setup.append(co.import_seconds())
            res = co.cli(jobs[j])
            execs.append(dict(res, job=j, kind="plain"))
            used[j] = used[j] + res["wall_s"] if res["code"] == 0 else share_s
        todo = [j for j in todo if used[j] < share_s]
        if not todo:
            break
    return execs, setup


def rate(execs, ok):
    """Verified jobs per second of the executions' summed wall time."""
    wall = sum(e["wall_s"] for e in execs)
    return sum(1 for e in execs if ok(e)) / wall if wall else 0.0


class Gate:
    """Checks each job's document, running reference commands where needed."""

    def __init__(self, co, first_docs):
        self.co = co
        self.docs = dict(first_docs)

    def reference(self, argv):
        """stdout of argv: from the timed jobs if it ran there, else run now."""
        argv = tuple(argv)
        if argv not in self.docs:
            res = self.co.cli(argv)
            if res["code"] != 0:
                raise gate.GateFailure(f"reference {job_key(argv)} exited {res['code']}")
            self.docs[argv] = res["stdout"]
        return self.docs[argv]

    def check(self, argv, stdout):
        if argv[0] == "check":
            gate.check_check(stdout)
            return
        doc = gate.load_doc(stdout)
        theta_args = ("--ghilb",) if "--ghilb" in argv else ("--theta", gate.option(argv, "--theta"))
        fan_argv = ("fan", "--group", gate.option(argv, "--group")) + theta_args
        if argv[0] == "fan":
            gate.check_fan(argv, doc)
            if "--lifted" in argv:
                oracle = tuple(a for a in argv if a != "--lifted")
                if self.reference(oracle) != stdout:
                    raise gate.GateFailure("lifted document differs from the oracle document")
        elif argv[0] == "rep":
            fan_doc = gate.load_doc(self.reference(fan_argv))
            gate.check_fan(fan_argv, fan_doc)
            gate.check_rep(doc, fan_doc)
            if "--single-optimizer" in argv:
                face = tuple(a for a in argv if a != "--single-optimizer")
                gate.check_face_in_single(gate.load_doc(self.reference(face)), doc)
        else:
            raise gate.GateFailure(f"unknown command {argv[0]}")


def verify(co, jobs, execs):
    """Mark each execution ok or failed, with a reason; returns the job digests."""
    first = {}
    for e in execs:
        if e["code"] == 0 and e["job"] not in first:
            first[e["job"]] = e["stdout"]
    checker = Gate(co, {jobs[j]: out for j, out in first.items()})
    verdicts = {}
    for j, out in first.items():
        try:
            checker.check(jobs[j], out)
            verdicts[j] = None
        except (gate.GateFailure, KeyError, TypeError, ValueError, IndexError) as exc:
            verdicts[j] = f"{type(exc).__name__}: {exc}"
    for e in execs:
        j = e["job"]
        if e["timed_out"]:
            e["error"] = "timed out"
        elif e["code"] != 0:
            e["error"] = f"exit code {e['code']}: {e['stderr'].strip()[-200:]}"
        elif e["stdout"] != first[j]:
            e["error"] = "document differs from the job's first run"
        else:
            e["error"] = verdicts[j]
    return {j: sha256(out) for j, out in first.items()}


def job_times(execs):
    """Median wall time of each job's untraced runs, keyed by job index."""
    walls = {}
    for e in execs:
        if e["kind"] == "plain":
            walls.setdefault(e["job"], []).append(e["wall_s"])
    return {j: statistics.median(w) for j, w in walls.items()}


def end_to_end(execs, setup_s, ok):
    times = job_times(execs)
    verified = {e["job"] for e in execs} - {e["job"] for e in execs if not ok(e)}
    return {
        "jobs_per_s": len(verified) / sum(times.values()),
        "job_s.p50": statistics.median(times.values()),
        "job_s.max": max(times.values()),
        "setup_s": setup_s,
        "peak_rss_mb": max(e["rss_kb"] for e in execs) / 1024,
        "verified_frac": sum(1 for e in execs if ok(e)) / len(execs),
    }


def per_layer(execs, ok):
    traced = [e for e in execs if e["kind"] == "traced"]
    plain = [e for e in execs if e["kind"] == "plain"]
    out = spans.merge(spans.aggregate(e["spans"]) for e in traced if e["spans"])
    out["cli.doc_bytes"] = sum(len(e["stdout"].encode()) for e in traced)
    out["trace.untraced_jobs_per_s"] = rate(plain, ok)
    out["trace.traced_jobs_per_s"] = rate(traced, ok)
    plain_s = sum(e["wall_s"] for e in plain)
    out["trace.overhead_frac"] = sum(e["wall_s"] for e in traced) / plain_s - 1 if plain_s else 0.0
    return out


def count_src_lines(src):
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Stopped from outside, still kill and reap the running job and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "mckay_moduli" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a mckay-moduli checkout "
              "(needs src/mckay_moduli and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    co = Checkout(root, start + RUN_DEADLINE_S)
    co.tmp.mkdir(parents=True, exist_ok=True)
    try:
        co.import_seconds()  # unmeasured: byte-compiles the package
        jobs = workloads.job_list(args.workload, args.seed)
        execs, setup = run_jobs(co, jobs, args.trace, args.seconds / len(jobs))
        digests = verify(co, jobs, execs)
    finally:
        shutil.rmtree(co.tmp, ignore_errors=True)
        if not any(co.tmp.parent.iterdir()):
            co.tmp.parent.rmdir()

    def ok(e):
        return e["error"] is None

    src_lines = count_src_lines(co.src)
    if args.trace:
        values = dict(per_layer(execs, ok), **{"src.lines": src_lines})
    else:
        values = end_to_end(execs, statistics.median(setup), ok)
    # A layer that never ran has no spans: its counts and seconds are 0.
    default = 0 if args.trace else None
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], default)
        if value is None:
            raise SystemExit(f"error: metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    failed = [e for e in execs if not ok(e)]
    doc_digest = sha256("\n".join(f"{digests.get(j, '-')} {job_key(a)}" for j, a in enumerate(jobs)))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "src_lines": src_lines,
        "documents_sha256": doc_digest,
        "jobs": [
            {
                "argv": list(a),
                "anchor": j < workloads.anchor_count(args.workload),
                "sha256": digests.get(j),
                "wall_s": [e["wall_s"] for e in execs if e["job"] == j and e["kind"] == "plain"],
                "errors": sorted({e["error"] for e in execs if e["job"] == j and e["error"]}),
            }
            for j, a in enumerate(jobs)
        ],
        "metrics": metrics,
    }
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for e in failed:
        print(f"FAILED {job_key(jobs[e['job']])} [{e['kind']}]: {e['error']}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, {len(execs)} runs, "
          f"src/ {src_lines} lines, documents sha256 {doc_digest}")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]['value']:>14.6g} {m['unit']}")
    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(execs),
        "failed": len(failed),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
