"""Wire-level serving benchmark of the versioned store.

Run from the repository root:

    python3 perfbench/run.py --workload mixed_contended --seed 1 \\
        --seconds 25 --trace 0

It starts a durable ``StoreServer`` in its own process (see
``launcher.py``), drives it from this process with two closed-loop
client connections, checks the outputs, recovers a replica from the
run's log, and prints the metrics as a table followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, scaled to the host's full speed (see
``speed.py``); ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics, the
request ledger and the tracing overhead.  The workloads, the
layer-to-metric map and the predictions are in ``README.md``.

The exit status is 0 for a correct run, 1 when an output check fails
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Fresh replica recoveries per untraced run; the printed
#: ``recovery_s`` is their median.
RECOVERIES = 7
#: Timed operations per block.  The p50, p90, throughput and CPU figures
#: are the medians of their per-block values, so a burst of CPU steal on
#: a shared host moves one block rather than the figure, and each block
#: is scaled by the host's slowdown over its own stretch (about a
#: second).  The p99 is taken over the whole run, since a block's p99
#: would rest on two samples beyond it.
BLOCK_OPS = 250
#: CPU steal share above which an untraced run measures again, and the
#: most attempts.  On the reference host a run saw 0-5 % steal when the
#: host was quiet and 8-26 % when it was busy, and a busy run's
#: latencies were up to 50 % higher.
STEAL_LIMIT = 0.05
ATTEMPTS = 2
#: A run that is not done by then is killed and fails.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "server_cpu_us_per_op": "us",
    "server_peak_rss_mb": "MB",
    "wal_mb": "MB",
}

CLIENT_HOOKS = [
    ("repro.server.client", "StoreClient.request", "client.request",
     lambda args, kwargs, result: args[1]),
    ("repro.server.client", "encode_frame", "client.encode",
     lambda args, kwargs, result: len(result)),
    ("repro.io", "FrameDecoder.feed", "client.decode",
     lambda args, kwargs, result: len(args[1])),
]


class BenchError(RuntimeError):
    """The benchmark could not run."""


def _cpu_stat() -> list[int]:
    """``/proc/stat`` time counters (user … steal) summed over the CPUs
    this process may run on."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    total = [0] * 8
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] in cpus:
                total = [a + int(b) for a, b in zip(total, fields[1:9])]
    return total


class ServerProcess:
    """One launcher process: a durable primary on a fresh log."""

    def __init__(self, workdir: Path, doc: Path, tag: str,
                 trace: bool = False):
        from repro.server import StoreClient

        self.wal = workdir / f"wal-{tag}"
        self.dump_path = workdir / f"dump-{tag}.json"
        command = [sys.executable, str(HERE / "launcher.py"),
                   "--doc", str(doc), "--wal", str(self.wal),
                   "--dump", str(self.dump_path)]
        if trace:
            command.append("--trace")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.control = None
        try:
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != "port":
                raise BenchError(f"launcher did not start: {line!r}")
            self.address = ("127.0.0.1", int(line[1]))
            self.control = StoreClient(*self.address)
            self.setup_s = time.monotonic() - self.started
        except BaseException:
            self.kill()
            raise

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise BenchError(f"launcher refused {text!r}")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def wal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.wal.iterdir())

    def stop(self) -> dict:
        """Shut the server down; returns its dump."""
        try:
            self.control.close()
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            if self.proc.wait(timeout=120) != 0:
                raise BenchError(f"launcher exited {self.proc.returncode}")
        finally:
            self.kill()
        return json.loads(self.dump_path.read_text())

    def kill(self) -> None:
        if self.control is not None:
            self.control.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def recover(wal: Path, times: int, trace: bool) -> tuple[list, list]:
    """Recover a fresh replica from the run's log in each of ``times``
    fresh processes (``recovery.py``); returns their results and,
    traced, the spans of the last one.  One recovery's time varied by
    up to 2x from one process to the next, hence several."""
    runs, spans = [], []
    command = [sys.executable, str(HERE / "recovery.py"), "--wal", str(wal)]
    if trace:
        command.append("--trace")
    for _ in range(times):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchError(f"recovery failed:\n{done.stderr[-2000:]}")
        result = json.loads(done.stdout)
        runs.append(result["run"])
        spans = result["spans"]
    return runs, spans


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


class CpuSampler:
    """Samples a process's CPU seconds from a background thread, so a
    stretch of a run can be charged its own CPU time."""

    def __init__(self, read, interval: float = 0.05):
        self.read = read
        self.samples: list[tuple[float, float]] = [
            (time.monotonic(), read())]
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True)
        self._thread.start()

    def _run(self, interval: float) -> None:
        while not self._done.wait(interval):
            self.samples.append((time.monotonic(), self.read()))

    def stop(self) -> None:
        self._done.set()
        self._thread.join()
        self.samples.append((time.monotonic(), self.read()))

    def at(self, t: float) -> float:
        """CPU seconds at time ``t``, interpolated between samples."""
        times = [s[0] for s in self.samples]
        i = min(max(bisect.bisect_left(times, t), 1), len(times) - 1)
        (t0, c0), (t1, c1) = self.samples[i - 1], self.samples[i]
        return c0 + (c1 - c0) * (t - t0) / (t1 - t0) if t1 > t0 else c1


def blocks(records: list[tuple], kind: str | None = None
           ) -> list[list[tuple]]:
    """The timed operations (of one kind) in start order, cut into
    consecutive blocks of about :data:`BLOCK_OPS`."""
    timed = sorted((r for r in records if r[3] and r[0] != "error"
                    and (kind is None or r[0] == kind)),
                   key=lambda r: r[1])
    count = max(1, len(timed) // BLOCK_OPS)
    size = len(timed) / count
    return [timed[round(i * size):round((i + 1) * size)]
            for i in range(count)]


def latency_summary(records: list[tuple], kind: str | None = None,
                    cpu: CpuSampler | None = None, speed=None) -> dict:
    """p99 over every timed operation; p50, p90, throughput and (given
    a sampler) server CPU per operation as medians of per-block values.
    Given a stopped :class:`speed.SpeedProbe`, each block's figures are
    scaled to the host's full speed."""
    parts = [block for block in blocks(records, kind) if block]
    out = {"n": sum(len(block) for block in parts),
           "p99_ms": percentile(sorted(r[2] - r[1] for block in parts
                                       for r in block), 99) * 1e3}
    rows = []
    for block in parts:
        start = block[0][1]
        end = max(r[2] for r in block)
        slow = speed.slowdown(start, end) if speed is not None else 1.0
        samples = sorted(r[2] - r[1] for r in block)
        row = {"p50_ms": statistics.median(samples) * 1e3 / slow,
               "p90_ms": percentile(samples, 90) * 1e3 / slow,
               "per_s": len(block) / (end - start) * slow}
        if cpu is not None:
            row["cpu_us_per_op"] = \
                (cpu.at(end) - cpu.at(start)) / len(block) * 1e6 / slow
        rows.append(row)
    for key in rows[0] if rows else ():
        out[key] = statistics.median(row[key] for row in rows)
    return out


class Pass:
    """One server lifetime: launch, load, stop, recover, check."""

    attempts = 1

    def __init__(self, workdir: Path, doc: Path, plans: list, tag: str,
                 trace: bool = False):
        from repro.server import StoreClient
        import checks

        self.server = ServerProcess(workdir, doc, tag, trace)
        try:
            self.setup_s = self.server.setup_s
            clients = [StoreClient(*self.server.address) for _ in plans]
            try:
                self._load(clients, plans, trace)
            finally:
                for client in clients:
                    client.close()
            self.dump = self.server.stop()
        except BaseException:
            self.server.kill()
            raise
        self.wal_bytes = self.server.wal_bytes()
        self.recoveries, self.replica_spans = recover(
            self.server.wal, 1, trace)
        self.attempted = len(self.records)
        self.errors = [r[4] for r in self.records if r[0] == "error"]
        self.problems = checks.check_run(self.records, self.dump,
                                         self.recoveries[0])
        self.problems += checks.check_reads(self.records, self.dump)

    def absorb(self, other: "Pass") -> None:
        """Count another pass's operations and failed checks as this
        run's own."""
        self.attempted += other.attempted
        self.errors += other.errors
        self.problems += other.problems

    def recover_more(self, times: int) -> None:
        """Recover ``times`` more replicas; each must agree with the
        first."""
        more, _ = recover(self.server.wal, times, False)
        for rec in more:
            if rec["digest"] != self.recoveries[0]["digest"]:
                self.problems.append("replica recoveries disagree")
        self.recoveries += more

    def _load(self, clients: list, plans: list, trace: bool) -> None:
        """Run the plans on connected clients, sampling the server's
        CPU and the host; traced, record spans on both sides."""
        from workloads import run_load

        client_rec = None
        if trace:
            from spans import SpanRecorder
            import ledger

            client_rec = SpanRecorder()
            client_rec.install(CLIENT_HOOKS)
            self.counters_before = ledger.flatten_metrics(
                self.server.control.metrics())
            self.server.command("mark")
            client_rec.enabled = True
        self.wal_bytes_before = self.server.wal_bytes()
        stat0 = _cpu_stat()
        load0 = os.getloadavg()[0]
        self.cpu = CpuSampler(self.server.cpu_s)
        try:
            self.records = run_load(clients, plans)
        finally:
            self.cpu.stop()
            if client_rec is not None:
                client_rec.enabled = False
                client_rec.uninstall()
        stat1 = _cpu_stat()
        self.load_avg = max(load0, os.getloadavg()[0])
        self.window = (self.cpu.samples[0][0], self.cpu.samples[-1][0])
        spent = [b - a for a, b in zip(stat0, stat1)]
        self.steal_share = spent[7] / sum(spent) if sum(spent) else 0.0
        self.peak_rss_mb = self.server.peak_rss_mb()
        if trace:
            self.server.command("unmark")
            self.counters_after = ledger.flatten_metrics(
                self.server.control.metrics())
            self.client_spans = client_rec.spans

    def end_to_end(self, speed) -> dict:
        """The gated metrics but ``setup_s``, timings scaled to the
        host's full speed."""
        summary = latency_summary(self.records, cpu=self.cpu, speed=speed)
        return {
            "op_p50_ms": summary["p50_ms"],
            "server_cpu_us_per_op": summary["cpu_us_per_op"],
            "server_peak_rss_mb": self.peak_rss_mb,
            "wal_mb": self.wal_bytes / 2**20,
        }

    def by_kind(self) -> dict:
        """The gated timings unscaled, the run's tail, and every timing
        per operation kind where the workload has that kind, all as
        measured."""
        summary = latency_summary(self.records, cpu=self.cpu)
        out = {"unscaled_op_p50_ms": (summary["p50_ms"], "ms"),
               "unscaled_server_cpu_us_per_op":
                   (summary["cpu_us_per_op"], "us"),
               "op_p90_ms": (summary["p90_ms"], "ms"),
               "op_p99_ms": (summary["p99_ms"], "ms"),
               "ops_per_s": (summary["per_s"], "1/s"),
               "recovery_s": (statistics.median(
                   r["seconds"] for r in self.recoveries), "s")}
        commits = sum(1 for r in self.records if r[0] == "commit")
        for kind in ("commit", "read"):
            summary = latency_summary(self.records, kind)
            if summary["n"]:
                out[f"{kind}_p50_ms"] = (summary["p50_ms"], "ms")
                out[f"{kind}_p90_ms"] = (summary["p90_ms"], "ms")
                out[f"{kind}_p99_ms"] = (summary["p99_ms"], "ms")
                out[f"{kind}s_per_s"] = (summary["per_s"], "1/s")
                out[f"{kind}_samples"] = (summary["n"], "count")
        out["error_rate"] = (len(self.errors) / self.attempted, "ratio")
        if commits:
            out["wal_bytes_per_commit"] = (
                (self.wal_bytes - self.wal_bytes_before) / commits, "bytes")
        return out

    def host(self, speed) -> dict:
        return {"nproc": os.cpu_count(),
                "cpus_used": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "steal_share": round(self.steal_share, 4),
                "slowdown": round(speed.slowdown(*self.window), 3),
                "attempts": self.attempts,
                "load_avg_1m": round(self.load_avg, 2)}


def _table(title: str, rows: dict) -> str:
    lines = [title]
    for name, (value, unit) in rows.items():
        lines.append(f"  {name:<42} {value:>14.4f} {unit}")
    return "\n".join(lines)


def untraced(workdir: Path, doc: Path, plans: list,
             speed) -> tuple[dict, Pass]:
    """Measure the workload, again on a fresh server while the host
    stole more than :data:`STEAL_LIMIT` of the CPU, up to
    :data:`ATTEMPTS` times; reports the attempt with the least steal.
    Every attempt's output checks count.  ``setup_s`` is the median of
    :data:`SETUP_LAUNCHES` launches, each scaled by the host's slowdown
    while it ran."""
    launches = []
    for i in range(SETUP_LAUNCHES - 1):
        server = ServerProcess(workdir, doc, f"setup{i}")
        launches.append(server)
        server.stop()
    attempts = []
    while len(attempts) < ATTEMPTS and (
            not attempts or attempts[-1].steal_share > STEAL_LIMIT):
        attempts.append(Pass(workdir, doc, plans, f"run{len(attempts)}"))
    speed.stop()
    run = min(attempts, key=lambda p: p.steal_share)
    run.attempts = len(attempts)
    run.recover_more(RECOVERIES - 1)
    for other in attempts:
        if other is not run:
            run.absorb(other)
    launches.append(attempts[0].server)
    run.unscaled_setup_s = statistics.median(s.setup_s for s in launches)
    setup_s = statistics.median(
        s.setup_s / speed.slowdown(s.started, s.started + s.setup_s)
        for s in launches)
    metrics = {"setup_s": setup_s, **run.end_to_end(speed)}
    return metrics, run


def traced(workdir: Path, doc: Path, plans: list,
           speed) -> tuple[dict, Pass]:
    import ledger

    bare = Pass(workdir, doc, plans, "bare")
    run = Pass(workdir, doc, plans, "traced", trace=True)
    speed.stop()
    metrics = ledger.layer_metrics(
        run.records, run.client_spans, run.dump["spans"],
        run.counters_before, run.counters_after, run.replica_spans,
        run.recoveries[0]["applied"], len(run.dump["sizes"]))
    base, with_trace = (latency_summary(p.records, speed=speed)
                        for p in (bare, run))
    metrics["trace.overhead_p50_pct"] = \
        (with_trace["p50_ms"] / base["p50_ms"] - 1) * 100
    base_mean, with_trace_mean = (
        _mean_latency(p.records) / speed.slowdown(*p.window)
        for p in (bare, run))
    metrics["trace.overhead_mean_pct"] = \
        (with_trace_mean / base_mean - 1) * 100
    run.absorb(bare)
    return metrics, run


def _mean_latency(records: list[tuple]) -> float:
    return statistics.fmean(r[2] - r[1] for r in records
                            if r[0] != "error")


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wire-level serving benchmark of the versioned store.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no store sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    # Every process of the run shares one CPU.  On the 2-vCPU virtual
    # host this benchmark was built on, a wake-up that crosses vCPUs
    # waits for the hypervisor, and that wait (counted as steal) grew
    # from 1 % to over 20 % of the run with other tenants' load: two
    # unpinned clients committing single rows with fsync swung between
    # 530 and 1040 commits/s from run to run; pinned, they held near 800.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from speed import SpeedProbe

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    ops = workloads.OPS_PER_SECOND[args.workload] * args.seconds \
        + workloads.WARMUP_OPS
    plans = workloads.plans(args.workload, args.seed, ops)
    workdir = ROOT / ".perfbench_runs" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    speed = SpeedProbe()
    try:
        doc = workdir / "state.json"
        workloads.make_document(doc)
        if args.trace:
            metrics, run = traced(workdir, doc, plans, speed)
            units = ledger.LAYER_METRICS
        else:
            metrics, run = untraced(workdir, doc, plans, speed)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        speed.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    print(_table(f"{args.workload} seed={args.seed} "
                 f"trace={args.trace} ops={len(run.records)}",
                 {k: (metrics[k], units[k]) for k in units}))
    by_kind = run.by_kind()
    if not args.trace:
        by_kind = {"unscaled_setup_s": (run.unscaled_setup_s, "s"),
                   **by_kind}
    print(_table("as measured, not scaled", by_kind))
    print("host " + json.dumps(run.host(speed)))
    for problem in run.problems + run.errors[:5]:
        print(f"problem: {problem}")
    correct = not run.problems and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
