#!/usr/bin/env python3
"""Wire-level end-to-end benchmark of `certa serve` (see README.md).

    python3 e2ebench/run.py --workload explain_cold --seed 1 --seconds 10 --trace 0

Builds the server and the load generator from this checkout, starts
real `certa serve --listen` processes, drives them from one
load-generator process, checks every answer against an in-process
replay, and prints a report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer split.
Exits non-zero when a check or an operation failed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("explain_cold", "explain_warm", "stream_mixed")
SETUPS = 5  # set-up passes per run; setup_s is their median


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the server and load generator."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no source tree next to " + BENCH_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "certa_cli", "e2e_loadgen"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "certa", "tools", "certa"),
            os.path.join(BUILD_DIR, "e2e_loadgen"))


class Server:
    """One `certa serve --listen` deployment (a process group)."""

    def __init__(self, certa, workload, directory):
        self.directory = directory
        os.makedirs(directory)
        command = [certa, "serve", "--listen", "0",
                   "--job-root", os.path.join(directory, "jobs"),
                   "--store-dir", os.path.join(directory, "store")]
        if workload == "explain_warm":
            command += ["--workers", "2"]
        if workload == "stream_mixed":
            command += ["--stream-dir", os.path.join(directory, "stream")]
        self.log_path = os.path.join(directory, "server.log")
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True)
        self.port = 0

    def wait_listening(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith("LISTENING "):
                        self.port = int(line.strip().rsplit(":", 1)[1])
                        return True
            if self.process.poll() is not None:
                return False
            time.sleep(0.005)
        return False

    def group_pids(self):
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry) as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == self.process.pid:  # process group id
                pids.append(int(entry))
        return pids

    def cpu_s(self):
        """User plus system CPU seconds of the master and every worker."""
        ticks = 0
        for pid in self.group_pids():
            try:
                with open("/proc/%d/stat" % pid) as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
                ticks += int(fields[11]) + int(fields[12])  # utime, stime
            except OSError:
                pass
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        """Summed VmHWM of the master and every worker."""
        total_kb = 0
        for pid in self.group_pids():
            try:
                with open("/proc/%d/status" % pid) as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10
        while self.group_pids():
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def loadgen(binary, mode, work, timeout, **flags):
    command = [binary, mode, "--dir", work]
    for key, value in flags.items():
        command += ["--" + key.replace("_", "-"), str(value)]
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def host_steal(since=None):
    """CPU time the hypervisor gave to other guests: (steal, total)
    jiffies now, or with `since` the stolen share of the time between."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    now = (fields[7] if len(fields) > 7 else 0, sum(fields))
    if since is None:
        return now
    total = now[1] - since[1]
    return (now[0] - since[0]) / total if total > 0 else 0.0


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def print_metrics(title, metrics):
    print(title)
    for metric in metrics:
        print("  %-34s %14.4f %-6s (n=%d)" % (
            metric["name"], metric["value"], metric["unit"],
            metric["samples"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Smoke-test knobs: a reduced request mix, and a deliberately
    # corrupted reference for one correctness check.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    certa, generator = build()
    work = os.path.join(RUN_DIR, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    servers = []
    try:
        if loadgen(generator, "plan", work, 170, workload=args.workload,
                   seed=args.seed, seconds=args.seconds,
                   tiny=int(args.tiny)) != 0:
            fail("cannot plan the workload")
        setup_s = []
        server = None
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            start = time.monotonic()
            server = Server(certa, args.workload,
                            os.path.join(work, "server%d" % i))
            servers.append(server)
            if not server.wait_listening():
                fail("server did not start; see " + server.log_path)
            loadgen(generator, "setup", work, 170, port=server.port)
            setup_s.append(time.monotonic() - start)
        cpu_before, steal_before = server.cpu_s(), host_steal()
        loadgen(generator, "drive", work, 170, port=server.port)
        cpu_s = server.cpu_s() - cpu_before
        steal_share = host_steal(steal_before)
        peak_rss_mb = server.peak_rss_mb()
        server.stop()
        flags = {"server_dir": server.directory, "trace": args.trace}
        if args.corrupt:
            flags["corrupt"] = args.corrupt
        loadgen(generator, "replay", work, 170, **flags)
        with open(os.path.join(work, "replay.json")) as replay_file:
            replay = json.load(replay_file)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass

    envelope = dict(replay["envelope"])
    envelope.update({
        "bench": "e2ebench", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "build_type": "Release", "hardware_threads": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "host_steal_share": round(steal_share, 4),
    })
    served = replay["phases"].get("timed", {}).get("ok", 0)
    e2e = [
        {"name": "cpu_ms_per_request", "value": 1000.0 * cpu_s / max(1, served),
         "unit": "ms", "samples": served},
        {"name": "setup_s", "value": statistics.median(setup_s), "unit": "s",
         "samples": len(setup_s)},
    ]
    attempted, failed = replay["attempted"], replay["failed"]
    report = replay["report"] + [
        {"name": "peak_rss_mb", "value": peak_rss_mb, "unit": "MB",
         "samples": 1},
        {"name": "error_rate", "value": failed / max(1, attempted),
         "unit": "ratio", "samples": attempted}]
    print("envelope " + json.dumps(envelope, sort_keys=True))
    for check in replay["checks"]:
        print("check %-36s %s (%d checked, %d failed)" % (
            check["name"], "ok" if check["failed"] == 0 else "FAILED",
            check["checked"], check["failed"]))
    for phase, count in sorted(replay["phases"].items()):
        print("ops %-8s sent=%d ok=%d failed=%d %s" % (
            phase, count["sent"], count["ok"], count["failed"],
            json.dumps(count["failures"], sort_keys=True)))
    if replay["failure"]:
        print("failure: " + replay["failure"])
    print_metrics("end-to-end", e2e)
    print_metrics("report", report)
    if args.trace:
        print_metrics("per-layer (traced replay)", replay["layers"])
    chosen = replay["layers"] if args.trace else e2e
    print(json.dumps({
        "correct": replay["correct"], "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in chosen}}))
    return 0 if replay["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
