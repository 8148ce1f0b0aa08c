#!/usr/bin/env python3
"""evocat benchmark: end-to-end jobs through Session::Run and a real evocatd.

Run from the root of an evocat checkout:

    python3 perfbench/run.py --workload scale-10k --seed 1 --seconds 30 --trace 0

The first run builds the tree from source into .bench_build/. With --trace 0
the workload's jobs run untraced for --seconds and the end-to-end metrics are
reported; with --trace 1 one job of the workload is replayed through the
public calls of each module with spans around every call, and the per-layer
metrics are reported. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it carries the
provenance and the detail (failure reasons, sample counts, tail percentile,
layers not in the metric set). See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
EVOCATD = os.path.join(BUILD, "evocat", "evocatd")
EVOCAT_PROTECT = os.path.join(BUILD, "evocat", "evocat_protect")

WORKLOADS = ("paper-1k", "scale-10k", "session-1k", "daemon-4c")
# Set-up samples taken before the measured loop (the loop adds one per job).
SETUP_SAMPLES = {"paper-1k": 9, "scale-10k": 9, "session-1k": 9,
                 "daemon-4c": 9}
DAEMON_CLIENTS = 4
POLL_INTERVAL_S = 0.01
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take

E2E_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "gens_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_score": "score",
}

MEASURES = ("ctbil", "dbil", "ebil", "id", "dbrl", "prl", "rsrl")
REBUILDING_MEASURES = ("dbrl", "prl", "rsrl")
LAYERS = ("api", "protection", "metrics", "core", "evolve", "server")


def layer_units():
    units = {}
    for m in MEASURES:
        p = "metrics." + m
        units[p + ".apply_s.delta"] = "s"
        units[p + ".revert_s"] = "s"
        units[p + ".cell.apply_s"] = "s"
        units[p + ".cell.revert_s"] = "s"
        if m in REBUILDING_MEASURES:
            units[p + ".apply_s.rebuild"] = "s"
            units[p + ".rebuild_share"] = "ratio"
    units.update({
        "metrics.leg_cells": "count",
        "metrics.create_s": "s",
        "metrics.bind_s": "s",
        "metrics.evaluate_s": "s",
        "core.step_s": "s",
        "core.step_s.mutation": "s",
        "core.mutate_s": "s",
        "core.crossover_s": "s",
        "evolve.run_s": "s",
        "protection.build_s": "s",
        "api.load_s": "s",
        "api.artifacts_json_s": "s",
        "api.artifacts_bytes": "bytes",
        "server.submit_s": "s",
        "server.queue_s": "s",
        "server.poll_requests": "count",
        "server.result_s": "s",
        "server.result_bytes": "bytes",
        "server.wal_append_s": "s",
        "common.steals": "count",
        "trace.overhead_s": "s",
    })
    for layer in LAYERS:
        units["self_s." + layer] = "s"
    return units


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "api", "session.h"),
                   os.path.join("tools", "evocatd.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found; run from an evocat checkout")
            sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                        BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "perfbench_runner", "evocatd", "evocat_protect"],
                   stdout=sys.stderr, check=True)


def provenance(args, ready, rows, generations):
    git_rev = "unknown"
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    build_type = "unknown"
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "git_rev": git_rev,
        "source_sha256": digest.hexdigest(),
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "workers": ready.get("workers"),
        "simd": ready.get("simd"),
        "rows": rows,
        "generations": generations,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# JobSpecs: the paper-default Adult spec, seeded from the workload seed
# ---------------------------------------------------------------------------

def base_spec():
    out = subprocess.run([EVOCAT_PROTECT, "--synthetic=adult", "--dump-job=-"],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def master_seeds(workload, seed, count):
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


class SpecMaker:
    """Jobs 0 and 1 of a run share a master seed (their best files must be
    identical); every later job has its own."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.base = base_spec()
        self.masters = master_seeds(workload, seed, 4096)
        self.rows = 10000 if workload == "scale-10k" else 1000
        if workload == "scale-10k":
            out = subprocess.run([RUNNER, "profile", "--rows=10000"],
                                 capture_output=True, text=True, check=True)
            self.base["source"] = json.loads(out.stdout.strip().splitlines()[-1])
            self.base["ga"]["generations"] = 10
        if workload in ("session-1k", "daemon-4c"):
            self.base["ga"]["mutation_rate"] = 1
        if workload == "daemon-4c":
            self.base["outputs"]["best_csv_path"] = ""

    def spec(self, index, best_csv_path=""):
        spec = json.loads(json.dumps(self.base))
        spec["seeds"]["master"] = self.masters[max(0, index - 1)]
        if self.workload != "daemon-4c":
            spec["outputs"]["best_csv_path"] = best_csv_path
        return spec


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            rank = max(1, min(n, int(-(-p * n // 100))))
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def metric(value, unit):
    if value is None:
        return {"value": None, "unit": unit, "note": "no samples"}
    return {"value": value, "unit": unit}


def end_to_end(setups, jobs, wall_s, peak_rss_mb):
    """jobs: successful job records with job_s, generations, best_score."""
    job_s = [j["job_s"] for j in jobs]
    metrics = {"setup_s": metric(statistics.median(setups) if setups else None,
                                 "s")}
    if not jobs:
        for name in E2E_UNITS:
            if name != "setup_s":
                metrics[name] = metric(None, E2E_UNITS[name])
        return metrics, {"setup_samples": len(setups), "job_samples": 0}
    p, tail_value = tail(job_s)
    metrics["job_s.p50"] = metric(statistics.median(job_s), "s")
    metrics["job_s.tail"] = metric(tail_value, "s")
    metrics["jobs_per_s"] = metric(len(jobs) / wall_s, "1/s")
    metrics["gens_per_s"] = metric(
        sum(j["generations"] for j in jobs) / sum(job_s), "1/s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    metrics["best_score"] = metric(
        statistics.fmean(j["best_score"] for j in jobs), "score")
    return metrics, {"setup_samples": len(setups), "job_samples": len(job_s),
                     "tail_percentile": p}


# ---------------------------------------------------------------------------
# Crash-isolated runner processes
# ---------------------------------------------------------------------------

# Every child process still running; main() kills and reaps what is left,
# so no process outlives the run, whatever ends it.
LIVE = set()


def spawn(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, bufsize=1)
    LIVE.add(proc)
    return proc


def read_line(proc, deadline):
    """Next stdout line of proc, or None on EOF or when deadline passes."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            return line if line else None


def read_json(proc, deadline):
    """Next stdout line of proc parsed as JSON; None on EOF, timeout or a
    line cut short by a crash."""
    line = read_line(proc, deadline)
    try:
        return json.loads(line) if line else None
    except ValueError:
        return None


def reap(proc):
    """Kill if still running, wait, and describe how it ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()
    LIVE.discard(proc)
    rc = proc.returncode
    if rc < 0:
        return "signal " + signal.Signals(-rc).name
    return f"exit {rc}"


def setup_sample(deadline):
    start = time.monotonic()
    proc = spawn([RUNNER, "ready"])
    ready = read_json(proc, deadline)
    elapsed = time.monotonic() - start
    reap(proc)
    return (elapsed, ready) if ready else (None, {})


class Failures:
    def __init__(self):
        self.reasons = {}
        self.count = 0

    def add(self, reason):
        self.count += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


ORACLE_PROCESSES = 4


def oracle_check(records, work, limit):
    """Re-score every best file with the Evaluate oracle and compare the
    same-seed pair, in ORACLE_PROCESSES checker processes. records: dicts
    with spec, best_csv, best, pair. Returns the merged checker report."""
    chunks = [[] for _ in range(ORACLE_PROCESSES)]
    for i, record in enumerate(records):
        # Both members of a pair must reach the same checker.
        chunks[0 if record["pair"] == "same-seed" else i % ORACLE_PROCESSES] \
            .append(record)
    procs = []
    for i, chunk in enumerate(c for c in chunks if c):
        path = os.path.join(work, f"check-{i}.jsonl")
        with open(path, "w") as f:
            for record in chunk:
                f.write(json.dumps(record) + "\n")
        procs.append((spawn([RUNNER, "check", f"--input={path}"]), len(chunk)))
    report = {"checked": 0, "failed": 0, "oracle_max_diff": 0.0}
    for proc, size in procs:
        result = read_json(proc, limit) or {}
        outcome = reap(proc)
        if not result.get("ok"):
            result = {"checked": size, "failed": size,
                      "status": result.get("status") or outcome}
            report["status"] = result["status"]
        report["checked"] += result["checked"]
        report["failed"] += result["failed"]
        report["oracle_max_diff"] = max(report["oracle_max_diff"],
                                        result.get("oracle_max_diff", 0.0))
    return report


def run_session_workload(args, work, limit):
    """One job per runner process, back to back, for --seconds."""
    maker = SpecMaker(args.workload, args.seed)
    setups, ready = [], {}
    for _ in range(SETUP_SAMPLES[args.workload]):
        elapsed, info = setup_sample(limit)
        if elapsed is not None:
            setups.append(elapsed)
            ready = info
    failures = Failures()
    jobs, records, wall_s = [], [], 0.0
    end = time.monotonic() + args.seconds
    attempted = 0
    while time.monotonic() < end and time.monotonic() < limit - 60:
        index, attempted = attempted, attempted + 1
        spec_path = os.path.join(work, f"job-{index}.json")
        best_path = os.path.join(work, f"best-{index}.csv")
        spec = maker.spec(index, best_path)
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        start = time.monotonic()
        proc = spawn([RUNNER, "job", f"--spec={spec_path}"])
        ready_line = read_json(proc, limit - 60)
        ready_at = time.monotonic()
        job = read_json(proc, limit - 60) if ready_line else None
        done_at = time.monotonic()
        outcome = reap(proc)
        wall_s += done_at - start
        if ready_line:
            setups.append(ready_at - start)
            ready = ready_line
        if not job or not job.get("ok"):
            failures.add((job or {}).get("status") or outcome)
            continue
        job["best_score"] = job["best"]["score"]
        jobs.append(job)
        with open(best_path) as f:
            records.append({"spec": spec, "best_csv": f.read(),
                            "best": job["best"],
                            "pair": "same-seed" if index < 2 else str(index)})
    oracle = oracle_check(records, work, limit) if records else {}
    for _ in range(oracle.get("failed", 0)):
        failures.add("oracle or same-seed mismatch")
    peak = max((j["peak_rss_mb"] for j in jobs), default=None)
    metrics, detail = end_to_end(setups, jobs, wall_s, peak)
    detail.update({
        "attempted": attempted,
        "failed": failures.count,
        "fail_rate": failures.count / attempted if attempted else None,
        "failures": failures.reasons,
        "oracle": oracle,
        "job_s": [round(j["job_s"], 4) for j in jobs],
        "steals_per_job": (statistics.fmean(j["steals"] for j in jobs)
                           if jobs else None),
        "workload_wall_s": wall_s,
    })
    return {
        "correct": bool(jobs) and oracle.get("failed", 1) == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": metrics,
        "detail": detail,
        "ready": ready,
        "rows": maker.rows,
        "generations": maker.base["ga"]["generations"],
    }


# ---------------------------------------------------------------------------
# evocatd over its Unix socket
# ---------------------------------------------------------------------------

class UnixHTTPConnection(http.client.HTTPConnection):
    def __init__(self, path, timeout=30.0):
        super().__init__("localhost", timeout=timeout)
        self.socket_path = path

    def connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self.sock = sock


def request(conn, method, path, body=None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class Daemon:
    """One evocatd process: --threads=4, fsync'd --wal, a Unix socket."""

    def __init__(self, work, tag):
        # Relative to the checkout root: a Unix socket path is limited to
        # 108 bytes, and the checkout may sit deep in the file system.
        self.socket_path = os.path.relpath(
            os.path.join(work, f"evocatd-{tag}.sock"), ROOT)
        self.wal_path = os.path.join(work, f"evocatd-{tag}.wal")
        self.proc = None
        self.peak_rss_mb = 0.0

    def start(self, deadline):
        """Launch and wait for /healthz; returns the set-up seconds."""
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [EVOCATD, f"--socket={self.socket_path}", f"--wal={self.wal_path}",
             "--threads=4", "--max-finished-jobs=100000",
             "--max-retained-mb=4096"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        LIVE.add(self.proc)
        while time.monotonic() < deadline and self.proc.poll() is None:
            try:
                conn = UnixHTTPConnection(self.socket_path, timeout=5.0)
                status, _ = request(conn, "GET", "/healthz")
                conn.close()
                if status == 200:
                    return time.monotonic() - start
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.0005)
        raise RuntimeError("evocatd did not come up")

    def alive(self):
        return self.proc is not None and self.proc.poll() is None

    def sample_rss(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = max(self.peak_rss_mb,
                                               int(line.split()[1]) / 1024.0)
        except OSError:
            pass

    def stop(self):
        if self.proc is None:
            return ""
        if self.proc.poll() is None:
            self.sample_rss()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        rc = self.proc.returncode
        LIVE.discard(self.proc)
        self.proc = None
        for path in (self.socket_path, self.wal_path):
            if os.path.exists(path):
                os.unlink(path)
        return f"signal {signal.Signals(-rc).name}" if rc < 0 else f"exit {rc}"


class Supervisor:
    """Owns the running daemon; restarts it when a client finds it dead.
    A dead daemon fails the jobs that were in flight on it."""

    def __init__(self, work, limit):
        self.work, self.limit = work, limit
        self.lock = threading.Lock()
        self.generation = 0
        self.deaths = []
        self.peak_rss_mb = 0.0
        self.daemon = None

    def start(self, setups):
        self.daemon = Daemon(self.work, f"g{self.generation}")
        setups.append(self.daemon.start(self.limit))

    def socket_path(self):
        with self.lock:
            return self.generation, self.daemon.socket_path

    def recover(self, generation, setups):
        with self.lock:
            if generation != self.generation or self.daemon.alive():
                return
            self.peak_rss_mb = max(self.peak_rss_mb, self.daemon.peak_rss_mb)
            self.deaths.append(self.daemon.stop())
            self.generation += 1
            self.start(setups)

    def sample_rss(self):
        with self.lock:
            self.daemon.sample_rss()
            self.peak_rss_mb = max(self.peak_rss_mb, self.daemon.peak_rss_mb)

    def stop(self):
        with self.lock:
            self.daemon.sample_rss()
            self.peak_rss_mb = max(self.peak_rss_mb, self.daemon.peak_rss_mb)
            self.daemon.stop()


def daemon_job(conn, body, limit, spans=None):
    """POST, poll, GET the result without the best file. Returns a record
    or raises; spans (optional) receives (name, start, end) tuples."""
    start = time.monotonic()
    status, payload = request(conn, "POST", "/v1/jobs", body)
    submitted = time.monotonic()
    if spans is not None:
        spans.append(("server.submit", start, submitted))
    if status != 202:
        raise JobFailed(f"POST {status}")
    job_id = json.loads(payload)["id"]
    polls = 0
    while True:
        poll_start = time.monotonic()
        status, payload = request(conn, "GET", f"/v1/jobs/{job_id}")
        polls += 1
        if spans is not None:
            spans.append(("server.poll", poll_start, time.monotonic()))
        if status != 200:
            raise JobFailed(f"status GET {status}")
        snapshot = json.loads(payload)
        if snapshot["state"] in ("done", "failed", "canceled"):
            break
        if time.monotonic() > limit:
            raise JobFailed("timeout")
        time.sleep(POLL_INTERVAL_S)
    if snapshot["state"] != "done":
        raise JobFailed("job " + snapshot["state"])
    result_start = time.monotonic()
    status, payload = request(conn, "GET", f"/v1/jobs/{job_id}/result?best_csv=0")
    end = time.monotonic()
    if spans is not None:
        spans.append(("server.result", result_start, end))
    if status != 200:
        raise JobFailed(f"result GET {status}")
    result = json.loads(payload)
    stats = result["stats"]
    return {
        "id": job_id,
        "job_s": end - start,
        "submit_s": submitted - start,
        "result_s": end - result_start,
        "result_bytes": len(payload),
        "queue_s": snapshot.get("queued_seconds", 0.0),
        "polls": polls,
        "generations": stats["mutation_generations"] +
        stats["crossover_generations"],
        "best_score": result["best"]["fitness"]["score"],
        "best": result["best"]["fitness"],
    }


class JobFailed(Exception):
    pass


def run_daemon_workload(args, work, limit):
    """DAEMON_CLIENTS closed-loop keep-alive connections against one evocatd."""
    maker = SpecMaker(args.workload, args.seed)
    setups, ready = [], {}
    for i in range(SETUP_SAMPLES[args.workload] - 1):
        daemon = Daemon(work, f"setup{i}")
        setups.append(daemon.start(limit))
        daemon.stop()
    supervisor = Supervisor(work, limit)
    supervisor.start(setups)
    _, ready = setup_sample(limit)  # scheduler workers + SIMD of this build

    lock = threading.Lock()
    next_index = [0]
    jobs, failures = [], Failures()
    end = time.monotonic() + args.seconds
    started = time.monotonic()
    last_done = [started]

    def client():
        conn, generation = None, None
        while time.monotonic() < end:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            spec = maker.spec(index)
            try:
                if conn is None:
                    generation, path = supervisor.socket_path()
                    conn = UnixHTTPConnection(path, timeout=60.0)
                record = daemon_job(conn, json.dumps(spec), limit - 30)
                record["spec"] = spec
                record["pair"] = "same-seed" if index < 2 else str(index)
                with lock:
                    jobs.append(record)
                    last_done[0] = max(last_done[0], time.monotonic())
            except Exception as error:  # any error fails this job only
                reason = str(error) if isinstance(error, JobFailed) else \
                    type(error).__name__
                with lock:
                    failures.add(reason)
                if conn is not None:
                    conn.close()
                conn = None
                supervisor.recover(generation, setups)

    threads = [threading.Thread(target=client) for _ in range(DAEMON_CLIENTS)]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        supervisor.sample_rss()
        time.sleep(0.05)
    for t in threads:
        t.join()
    wall_s = last_done[0] - started

    # Oracle: fetch each best file (untimed, after the window) and re-score.
    records = []
    if jobs:
        _, path = supervisor.socket_path()
        conn = UnixHTTPConnection(path, timeout=60.0)
        for record in jobs:
            status, payload = request(
                conn, "GET", f"/v1/jobs/{record['id']}/result")
            records.append({
                "spec": record["spec"],
                "best_csv": (json.loads(payload).get("best_csv")
                             if status == 200 else None),
                "best": record["best"], "pair": record["pair"]})
        conn.close()
    supervisor.stop()
    oracle = oracle_check(records, work, limit) if records else {}
    for _ in range(oracle.get("failed", 0)):
        failures.add("oracle or same-seed mismatch")

    attempted = next_index[0]
    metrics, detail = end_to_end(setups, jobs, wall_s, supervisor.peak_rss_mb)
    detail.update({
        "attempted": attempted,
        "failed": failures.count,
        "fail_rate": failures.count / attempted if attempted else None,
        "failures": failures.reasons,
        "daemon_deaths": supervisor.deaths,
        "oracle": oracle,
        "job_s": [round(j["job_s"], 4) for j in jobs],
        "workload_wall_s": wall_s,
        "clients": DAEMON_CLIENTS,
        "queue_s.p50": (statistics.median(j["queue_s"] for j in jobs)
                        if jobs else None),
        "polls_per_job": (statistics.fmean(j["polls"] for j in jobs)
                          if jobs else None),
    })
    return {
        "correct": bool(jobs) and oracle.get("failed", 1) == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": metrics,
        "detail": detail,
        "ready": ready,
        "rows": maker.rows,
        "generations": maker.base["ga"]["generations"],
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def self_times(spans):
    """Layer self time from (name, start, end, parent) spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def run_trace(args, work, limit):
    maker = SpecMaker(args.workload, args.seed)
    spec = maker.spec(0)
    spec_path = os.path.join(work, "trace-job.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)

    samples, spans, phases = {}, [], {}
    failures = Failures()
    for phase in ("layers", "engine", "session"):
        out_path = os.path.join(work, f"trace-{phase}.json")
        proc = spawn([RUNNER, "trace", f"--spec={spec_path}",
                      f"--phase={phase}", f"--out={out_path}"])
        result = read_json(proc, limit) or {}
        outcome = reap(proc)
        if not result.get("ok"):
            failures.add(f"{phase}: {result.get('status') or outcome}")
            continue
        with open(out_path) as f:
            traced = json.load(f)
        phases[phase] = traced["phase_s"]
        for name, values in traced["samples"].items():
            samples.setdefault(name, []).extend(values)
        offset = len(spans)
        for s in traced["spans"]:
            parent = s["parent"] + offset if s["parent"] >= 0 else -1
            spans.append((s["name"], s["start"], s["end"], parent,
                          f"{phase}/{s['job']}"))

    # The same job once through a scratch evocatd, spans taken client-side.
    daemon = Daemon(work, "trace")
    client_spans = []
    try:
        daemon.start(limit)
        conn = UnixHTTPConnection(daemon.socket_path, timeout=120.0)
        record = daemon_job(conn, json.dumps(spec), limit - 10, client_spans)
        conn.close()
        for name in ("submit_s", "result_s", "result_bytes", "queue_s"):
            samples.setdefault("server." + name, []).append(record[name])
        samples.setdefault("server.poll_requests", []).append(record["polls"])
    except Exception as error:  # the daemon leg fails; the run goes on
        failures.add(f"daemon: {error} ({daemon.stop()})")
    finally:
        daemon.stop()
    origin = client_spans[0][1] if client_spans else 0.0
    for name, start, end in client_spans:
        spans.append((name, start - origin, end - origin, -1, "daemon/1"))

    values = {name: statistics.median(v) for name, v in samples.items() if v}
    if "trace.traced_job_s" in values and "trace.untraced_job_s" in values:
        values["trace.overhead_s"] = (values["trace.traced_job_s"] -
                                      values["trace.untraced_job_s"])
    for layer, seconds in self_times([s[:4] for s in spans]).items():
        values["self_s." + layer] = seconds

    units = layer_units()
    metrics = {name: metric(values.get(name), unit)
               for name, unit in units.items()}
    extra = {name: v for name, v in values.items() if name not in units}
    trace_path = os.path.join(
        ROOT, ".bench_build", f"trace-{args.workload}-{args.seed}.json")
    with open(trace_path, "w") as f:
        json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p,
                              "job": j} for n, s, e, p, j in spans]}, f)
    attempted = 4
    return {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": metrics,
        "detail": {"failures": failures.reasons, "phase_s": phases,
                   "extra": extra, "trace_file": os.path.relpath(trace_path, ROOT),
                   "spans": len(spans)},
        "ready": {},
        "rows": maker.rows,
        "generations": spec["ga"]["generations"],
    }


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    build()
    limit = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        if args.trace:
            result = run_trace(args, work, limit)
        elif args.workload == "daemon-4c":
            result = run_daemon_workload(args, work, limit)
        else:
            result = run_session_workload(args, work, limit)
        if not result["ready"]:
            _, result["ready"] = setup_sample(limit)
    finally:
        for proc in list(LIVE):
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "provenance": provenance(args, result["ready"], result["rows"],
                                 result["generations"]),
        "detail": result["detail"],
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
