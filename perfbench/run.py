#!/usr/bin/env python3
"""The mcsim benchmark: three seeded workloads, end-to-end metrics, and a
traced per-layer run (perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload archive_replay --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 15 --trace 1
  python3 perfbench/run.py --steadiness 10 [--workload fig3_sweep] [--seconds 15]

The first call builds mcsim and the timing program `mcbench` from source into
.bench_build/ (or $CARGO_TARGET_DIR). Every run generates its inputs from
--seed, checks every output against a reference computed before timing,
prints a report and, as its last line, one JSON object with the metrics
BENCHMARK.json names. It exits 1 when an output check fails.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR", ".bench_build")

# archive_replay and fig3_sweep report calibrated seconds: seconds measured,
# times NOMINAL_YARDSTICK_S over the yardstick (mcbench.cpp, heap_hold_s)
# taken on the same thread right before and after them. The nominal value is
# the yardstick of an uncontended core of the reference host, so calibrated
# seconds read as that host's seconds (perfbench/README.md, "Calibration").
# serve_mixed reports raw seconds.
NOMINAL_YARDSTICK_S = 0.0042

RUNNER_WIDTH = 2      # the fig3 specs' parallelism and `mcsim serve --jobs`
CLIENTS = 2           # closed-loop serve clients, one connection each

ARCHIVE_JOBS = 1_000_000
ARCHIVE_UTILIZATION = 0.3

FIG3_POLICIES = ("GS", "LS", "LP", "SC")
FIG3_JOBS = 300_000

# The serve logs do not depend on --seed: one conservative-backfill replay
# of a 20k-job log costs up to 3x more on one generator seed than on another
# (queue bursts), which would make the spread between seeds measure the
# generator instead of mcsim. The seed draws the point specs and the request
# order; every round holds each spec the same number of times.
SERVE_LOGS = 4
SERVE_LOG_JOBS = 20_000
SERVE_TRACE_UTILIZATION = 0.5
SERVE_POINT_JOBS = 10_000
SERVE_POINT_UTILIZATIONS = (0.40, 0.45, 0.50, 0.55) * 2   # one per point spec
SERVE_ROUND = {"point": 40, "trace": 16}   # 71% / 29% of each round
SERVE_MIN_SAMPLES = 200                    # per class: enough for a p95
SERVE_SETUPS = 5
SERVE_MAX_SECONDS = 90                     # per phase, or 3x --seconds if longer
SERVE_PLANNED_ROUNDS = 300


def log(line=""):
    print(line, flush=True)


def median(values):
    return statistics.median(values)


def calibrated(seconds, yardstick):
    return seconds * NOMINAL_YARDSTICK_S / yardstick


def derive_seed(seed, purpose):
    return random.Random(f"{purpose}:{seed}").randrange(1, 2**31)


def run_tool(args, capture=False):
    result = subprocess.run(args, check=False, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {result.returncode}: "
                           f"{result.stderr.strip()[-2000:]}")
    return result.stdout if capture else None


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, value):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, indent=1, sort_keys=True)
        handle.write("\n")


def scenario(name, body):
    spec = {"schema": "mcsim-scenario", "schema_version": 1, "name": name}
    spec.update(body)
    return spec


# -- build --------------------------------------------------------------------

class Tools:
    def __init__(self, build_dir):
        self.mcbench = os.path.join(build_dir, "mcbench")
        self.mcsim = os.path.join(build_dir, "mcsim", "tools", "mcsim")
        self.make_archive_sample = os.path.join(build_dir, "mcsim", "tools",
                                                "make_archive_sample")
        self.info = {}

    def scaled_trace_spec(self, path, spec, utilization):
        """Write trace `spec` to `path` with the arrival scale at which its
        log offers `utilization` on the spec's machine."""
        write_json(path, spec)
        spec["workload"]["arrival_scale"] = float(run_tool(
            [self.mcbench, "trace-scale", f"--spec={path}",
             f"--utilization={utilization!r}"], capture=True))
        write_json(path, spec)
        return spec

    def reference(self, spec_paths, out):
        run_tool([self.mcbench, "reference", "--specs=" + ",".join(spec_paths),
                  f"--out={out}"])
        return read_json(out)


def build():
    """Configure and build mcbench, mcsim and make_archive_sample (Release)."""
    build_dir = os.path.join(BUILD_ROOT, "cmake")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "mcbench", "mcsim",
         "make_archive_sample", "-j", "3"],
    ]
    with open(log_path, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                out.flush()
                with open(log_path, encoding="utf-8") as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise RuntimeError("build failed (see " + log_path + ")")
    return Tools(build_dir)


# -- inputs -------------------------------------------------------------------

def describe_inputs(paths):
    """Print each generated input's size and digest."""
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        log(f"input {os.path.basename(path)}: {os.path.getsize(path)} bytes, "
            f"sha256 {digest.hexdigest()}")


# -- archive_replay -----------------------------------------------------------

def archive_replay(tools, work, args):
    seed = derive_seed(args.seed, "archive_replay")
    log_path = os.path.join(work, "archive.swf")
    run_tool([tools.make_archive_sample, "--style=ctc", f"--jobs={ARCHIVE_JOBS}",
              f"--seed={seed}", f"--out={log_path}"])
    spec_path = os.path.join(work, "archive.json")
    tools.scaled_trace_spec(spec_path, scenario("archive_replay: ctc-style log under LS", {
        "workload": {"type": "trace", "path": "archive.swf"},
        "policy": {"kind": "LS"},
        "run": {"mode": "point", "seed": seed},
    }), ARCHIVE_UTILIZATION)
    describe_inputs([log_path, spec_path])
    reference = tools.reference([spec_path], os.path.join(work, "reference.json"))

    def measure(trace):
        out = os.path.join(work, f"archive-{trace}.json")
        run_tool([tools.mcbench, "archive", f"--spec={spec_path}",
                  f"--seconds={args.seconds}", f"--trace={trace}", f"--out={out}"])
        return read_json(out)

    tally = benchstats.Tally()
    untraced = measure(0)
    tools.info.update(compiler=untraced["compiler"], build_type=untraced["build_type"])
    traced = measure(1) if args.trace else None
    outcome = {"tally": tally, "spans": [], "report": []}
    for phase in [untraced] + ([traced] if traced else []):
        for rep in phase["reps"]:
            for key in ("digest", "memory_digest"):
                if key in rep:
                    tally.record(rep[key] == reference[spec_path],
                                 f"replay {key} {rep[key]} != {reference[spec_path]}")

    calibrate_replays([untraced] + ([traced] if traced else []))
    reps = untraced["reps"]
    wall = median([r["wall_s"] for r in reps])
    outcome["e2e"] = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "wall_s": wall,
        "events_per_s": median([r["events"] / r["wall_s"] for r in reps]),
        "runs_per_s": median([1.0 / (r["setup_s"] + r["wall_s"]) for r in reps]),
        "peak_rss_mb": untraced["peak_rss_bytes"] / 1e6,
    }
    outcome["report"].append(f"replays timed: {len(reps)}; raw wall_s " + ", ".join(
        f"{r['raw_wall_s']:.3f}" for r in reps))
    if traced:
        treps = traced["reps"]
        first = treps[0]
        layer = zero_layers()
        layer.update({
            "trace.scan_s": median([r["scan_s"] for r in treps]),
            "trace.parse_s": median([r["parse_s"] for r in treps]),
            "workload.pull_s": median([r["pull_s"] for r in treps]),
            "core.run_s": median([r["run_s"] for r in treps]),
            "core.events": first["events"],
            "core.jobs": first["jobs"],
            "exp.config_build_s": median([r["setup_s"] for r in treps]),
            "exp.manifest_write_s": median([r["manifest_s"] for r in treps]),
            "exp.manifest_bytes": first["manifest_bytes"],
        })
        layer["trace.parse_mb_per_s"] = traced["log_bytes"] / 1e6 / layer["trace.parse_s"]
        # Engine self time from its own passes: the records replayed from
        # memory, minus the same records pulled from memory with no engine.
        memory_run = median([r["memory_run_s"] for r in treps])
        memory_pull = median([r["memory_pull_s"] for r in treps])
        layer["core.self_s"] = median([r["memory_run_s"] - r["memory_pull_s"] for r in treps])
        layer.update(policy_layers([first]))
        traced_wall = median([r["wall_s"] for r in treps])
        layer["bench.trace_overhead_s"] = traced_wall - wall
        # Three passes measured apart from the timed replay; their sum is
        # compared with the untraced wall, not derived from it.
        accounted = (layer["workload.pull_s"] + layer["core.self_s"]
                     + layer["exp.manifest_write_s"])
        gap = accounted - wall
        holds = abs(gap) <= abs(layer["bench.trace_overhead_s"])
        outcome["report"].append(
            f"accounting: untraced wall_s {wall:.4f} s; pull from disk"
            f" {layer['workload.pull_s']:.4f} (parse {layer['trace.parse_s']:.4f})"
            f" + engine self {layer['core.self_s']:.4f} (replay from memory"
            f" {memory_run:.4f} - pull from memory {memory_pull:.4f})"
            f" + manifest {layer['exp.manifest_write_s']:.6f} = {accounted:.4f} s;"
            f" gap {gap:+.4f} s ({gap / wall:+.1%}) vs tracing overhead"
            f" {layer['bench.trace_overhead_s']:+.4f} s:"
            f" {'within' if holds else 'outside'} it")
        outcome["layer"] = layer
        outcome["spans"] = traced["spans"]
    return outcome


# -- fig3_sweep ---------------------------------------------------------------

def fig3_sweep(tools, work, args):
    seed = derive_seed(args.seed, "fig3_sweep")
    spec_paths = []
    for policy in FIG3_POLICIES:
        path = os.path.join(work, f"fig3_{policy}.json")
        write_json(path, scenario(f"fig3_sweep: {policy} limit 16 on DAS-s-128", {
            "workload": {"size_model": "das-s-128"},
            "policy": {"kind": policy},
            "run": {"mode": "sweep", "sweep": {"from": 0.30, "to": 0.80, "step": 0.05},
                    "sim_jobs": FIG3_JOBS, "seed": seed, "parallelism": RUNNER_WIDTH},
        }))
        spec_paths.append(path)
    describe_inputs(spec_paths)
    reference = tools.reference(spec_paths, os.path.join(work, "reference.json"))

    def measure(trace):
        out = os.path.join(work, f"sweep-{trace}.json")
        run_tool([tools.mcbench, "sweep", "--specs=" + ",".join(spec_paths),
                  f"--seconds={args.seconds}", f"--trace={trace}", f"--out={out}"])
        return read_json(out)

    tally = benchstats.Tally()
    untraced = measure(0)
    tools.info.update(compiler=untraced["compiler"], build_type=untraced["build_type"])
    traced = measure(1) if args.trace else None
    for phase in [untraced] + ([traced] if traced else []):
        for rep in phase["reps"]:
            for sweep in rep["sweeps"]:
                tally.record(sweep["digest"] == reference[sweep["spec"]],
                             f"{sweep['spec']}: sweep digest {sweep['digest']}")
            for path, digest in rep.get("point_digests", {}).items():
                tally.record(digest == reference[path], f"{path}: point pass digest {digest}")

    calibrate_sweeps([untraced] + ([traced] if traced else []))
    reps = untraced["reps"]
    wall = median([r["wall_s"] for r in reps])
    outcome = {"tally": tally, "spans": [], "report": [
        f"sweeps timed: {len(reps)}; raw wall_s "
        + ", ".join(f"{r['raw_wall_s']:.3f}" for r in reps)]}
    outcome["e2e"] = {
        "setup_s": median([calibrated(t, untraced["setup_yardstick_s"])
                           for t in untraced["setup_s"]]),
        "wall_s": wall,
        "events_per_s": median([r["events"] / r["wall_s"] for r in reps]),
        "runs_per_s": median([r["runs"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": untraced["peak_rss_bytes"] / 1e6,
    }
    if traced:
        treps = traced["reps"]
        spans = traced["spans"]
        layer = zero_layers()
        points = [p for rep in treps for p in rep["points"]]
        config_builds = []
        for index, span in enumerate(spans):
            if span["name"] == "bench.setup":
                config_builds.append(calibrated(sum(
                    s["end"] - s["start"] for s in spans
                    if s["parent"] == index and s["name"] == "exp.to_simulation_config"),
                    traced["setup_yardstick_s"]))
        layer.update({
            "workload.generate_s": median([r["generate_s"] for r in treps]),
            "core.run_s": statistics.fmean(p["run_s"] for p in points if not p["unstable"]),
            "core.events": statistics.fmean(p["events"] for p in points),
            "core.jobs": statistics.fmean(p["jobs"] for p in points),
            "exp.config_build_s": median(config_builds),
            "exp.runner_busy_frac": median([
                sum(p["run_s"] for p in r["points"]) / (RUNNER_WIDTH * r["makespan_s"])
                for r in treps]),
            "exp.runner_tail_s": median([r["tail_s"] for r in treps]),
        })
        layer["core.self_s"] = layer["core.run_s"] - layer["workload.generate_s"]
        layer.update(policy_layers(points))
        layer["bench.trace_overhead_s"] = median([r["wall_s"] for r in treps]) - wall
        outcome["layer"] = layer
        outcome["spans"] = spans
    return outcome


# -- serve_mixed --------------------------------------------------------------

class Connection:
    """One NDJSON connection to the daemon (docs/SERVING.md)."""

    def __init__(self, path, deadline_s=30.0):
        start = time.perf_counter()
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.perf_counter() - start > deadline_s:
                    raise
                time.sleep(0.002)
        self.file = self.sock.makefile("rwb")
        self.last_line = b""

    def request(self, obj):
        self.file.write(json.dumps(obj).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise RuntimeError("daemon closed the connection")
        self.last_line = line
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"daemon error: {response.get('error')}")
        return response

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    """`mcsim serve` with its start-to-first-connection time."""

    def __init__(self, tools, work, sandbox):
        self.socket_path = os.path.join(work, "serve.sock")
        self.log = open(os.path.join(work, "serve.log"), "a", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [tools.mcsim, "serve", f"--socket={self.socket_path}",
             f"--jobs={RUNNER_WIDTH}", f"--sandbox={sandbox}"],
            stdout=self.log, stderr=self.log)
        try:
            self.control = Connection(self.socket_path)
        except Exception:
            self.kill()
            raise
        self.start_s = time.perf_counter() - start

    def peak_rss_bytes(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError("no VmHWM for the daemon")

    def shutdown(self):
        """Drain and stop; the daemon must exit 0."""
        try:
            self.control.request({"op": "shutdown"})
            self.control.close()
            code = self.proc.wait(timeout=60)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"mcsim serve exited {code} after the drain")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class ServeSession:
    """Closed-loop rounds against one daemon: CLIENTS threads, each sending
    its next request only after the previous result arrived. The daemon's
    control connection is the first client's, so the load uses CLIENTS
    connections in all."""

    def __init__(self, daemon, specs, tracer_origin):
        self.specs = specs
        self.origin = tracer_origin
        self.first_manifest = {}
        self.spans = []
        self.lock = threading.Lock()
        self.connections = [daemon.control] + [
            Connection(daemon.socket_path) for _ in range(CLIENTS - 1)]

    def close(self):
        """Close the clients' own connections; the daemon keeps its control."""
        for conn in self.connections[1:]:
            conn.close()

    def _client(self, conn, queue, tally, traced, out):
        while True:
            with self.lock:
                if not queue:
                    return
                cls, key = queue.pop()
            t0 = time.perf_counter()
            try:
                ack = conn.request({"op": "submit", "spec": self.specs[key]})
                t1 = time.perf_counter()
                done = conn.request({"op": "result", "id": ack["id"], "wait": True})
                t2 = time.perf_counter()
                manifest = done["manifest"]
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                with self.lock:
                    tally.record(False, f"{key}: {error}")
                continue
            observed = {k: manifest.get(k) for k in ("config", "result", "scenario")}
            with self.lock:
                # The raw response keeps the daemon's number spellings,
                # which the observation digest covers.
                first = self.first_manifest.setdefault(key, (observed, conn.last_line))
                tally.record(first[0] == observed, f"{key}: served result differs")
                out.append({"class": cls, "latency": t2 - t0, "ack": t1 - t0,
                            "wait": t2 - t1,
                            "events": manifest["clocks"]["events_executed"],
                            "jobs": manifest["result"]["completed_jobs"],
                            "run_s": manifest["clocks"]["wall_seconds"],
                            "metrics": manifest.get("metrics", {})})
                if traced:
                    root = len(self.spans)
                    rid = str(ack["id"])
                    self.spans.append({"name": "serve.request", "parent": -1,
                                       "start": t0 - self.origin, "end": t2 - self.origin,
                                       "request": rid})
                    self.spans.append({"name": "serve.submit", "parent": root,
                                       "start": t0 - self.origin, "end": t1 - self.origin,
                                       "request": rid})
                    self.spans.append({"name": "serve.result", "parent": root,
                                       "start": t1 - self.origin, "end": t2 - self.origin,
                                       "request": rid})

    def round(self, requests, tally, traced):
        queue = list(reversed(requests))
        out = []
        threads = [threading.Thread(target=self._client,
                                    args=(conn, queue, tally, traced, out))
                   for conn in self.connections]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, out


def serve_rounds(rng, specs):
    """The seeded request sequence: rounds of SERVE_ROUND, shuffled."""
    round_ = []
    for cls, count in SERVE_ROUND.items():
        keys = [key for key in specs if key.startswith(cls)]
        round_ += [(cls, key) for key in keys] * (count // len(keys))
    while True:
        requests = list(round_)
        rng.shuffle(requests)
        yield requests


def serve_mixed(tools, work, args):
    seed = derive_seed(args.seed, "serve_mixed")
    rng = random.Random(seed)
    sandbox = os.path.join(work, "sandbox")
    os.makedirs(sandbox)
    specs, log_paths = {}, []
    for i in range(SERVE_LOGS):
        log_seed = derive_seed(i, "serve_log")
        log_paths.append(os.path.join(sandbox, f"serve{i}.swf"))
        run_tool([tools.make_archive_sample, "--style=ctc", f"--jobs={SERVE_LOG_JOBS}",
                  f"--seed={log_seed}", f"--out={log_paths[-1]}"])
        specs[f"trace{i}"] = tools.scaled_trace_spec(
            os.path.join(sandbox, f"trace{i}.json"),
            scenario(f"serve_mixed: GS + conservative backfill, log {i}", {
                "workload": {"type": "trace", "path": f"serve{i}.swf"},
                "policy": {"kind": "GS", "backfill": "conservative"},
                "run": {"mode": "point", "seed": log_seed},
            }), SERVE_TRACE_UTILIZATION)
    for i, utilization in enumerate(SERVE_POINT_UTILIZATIONS):
        specs[f"point{i}"] = scenario(f"serve_mixed: LS point {i}", {
            "policy": {"kind": "LS"},
            "run": {"mode": "point", "utilization": utilization,
                    "sim_jobs": SERVE_POINT_JOBS, "seed": rng.randrange(1, 2**31)},
        })
    rounds = serve_rounds(rng, specs)
    planned = [next(rounds) for _ in range(SERVE_PLANNED_ROUNDS)]
    plan_path = os.path.join(work, "requests.json")
    write_json(plan_path, {"specs": specs, "rounds": planned})
    rounds = iter(planned)
    describe_inputs(log_paths + [plan_path])

    # The reference: every distinct spec run in-process as the daemon runs
    # it, with the trace path rewritten the way --sandbox rewrites it.
    offline_paths = {}
    for key, spec in specs.items():
        offline = json.loads(json.dumps(spec))
        if "workload" in offline:
            offline["workload"]["path"] = os.path.normpath(
                os.path.join(sandbox, offline["workload"]["path"]))
        offline_paths[key] = os.path.join(work, f"offline-{key}.json")
        write_json(offline_paths[key], offline)
    offline_out = os.path.join(work, "offline.json")
    run_tool([tools.mcbench, "offline", "--specs=" + ",".join(offline_paths.values()),
              f"--trace={1 if args.trace else 0}", f"--out={offline_out}"])
    offline = read_json(offline_out)
    tools.info.update(compiler=offline["compiler"], build_type=offline["build_type"])

    tally = benchstats.Tally()
    setups = []
    for _ in range(SERVE_SETUPS):
        daemon = Daemon(tools, work, sandbox)
        try:
            start = time.perf_counter()
            for key in specs:
                if key.startswith("trace"):
                    ack = daemon.control.request({"op": "submit", "spec": specs[key]})
                    daemon.control.request({"op": "result", "id": ack["id"], "wait": True})
            cold = time.perf_counter() - start
        finally:
            daemon.shutdown()
        setups.append(daemon.start_s + cold)

    origin = time.perf_counter()
    daemon = Daemon(tools, work, sandbox)
    try:
        session = ServeSession(daemon, specs, origin)
        session.round(next(rounds), tally, traced=False)  # warm-up, untimed
        phases = [run_serve_phase(session, rounds, tally, args, traced=False)]
        if args.trace:
            phases.append(run_serve_phase(session, rounds, tally, args, traced=True))
        stats = daemon.control.request({"op": "stats"})
        peak_rss = daemon.peak_rss_bytes()
        session.close()
    finally:
        daemon.shutdown()

    # Every distinct served spec against its offline observation.
    manifests = []
    for key, (_, response) in sorted(session.first_manifest.items()):
        path = os.path.join(work, f"served-{key}.json")
        with open(path, "wb") as handle:
            handle.write(response)
        manifests.append((key, path))
    observed = read_json(_observe(tools, work, [p for _, p in manifests]))
    for key, path in manifests:
        expected = offline["specs"][offline_paths[key]]["observation"]
        tally.record(observed[path] == expected,
                     f"{key}: served observation {observed[path]} != offline {expected}")

    untraced = phases[0]
    outcome = {"tally": tally, "spans": session.spans, "report": []}
    outcome["e2e"] = {
        "setup_s": median(setups),
        "wall_s": median(untraced["walls"]),
        "events_per_s": median([e / w for e, w in zip(untraced["events"], untraced["walls"])]),
        "runs_per_s": median([n / w for n, w in zip(untraced["requests"], untraced["walls"])]),
        "peak_rss_mb": peak_rss / 1e6,
    }
    for cls in ("point", "trace"):
        summary = benchstats.latency_summary(
            [s["latency"] for s in untraced["samples"] if s["class"] == cls])
        outcome["report"].append(
            f"{cls} submit->result: p50 {summary['p50']:.4f} s, p{summary['p']:g} "
            f"{summary['value']:.4f} s over {summary['n']} requests")
    outcome["report"].append(f"rounds timed: {len(untraced['walls'])}; cache "
                             f"{stats['cache']}; runs {stats['runs']}")
    if args.trace:
        outcome["layer"] = serve_layers(phases, offline, offline_paths, stats)
    return outcome


def _observe(tools, work, paths):
    out = os.path.join(work, "observed.json")
    run_tool([tools.mcbench, "observe", "--manifests=" + ",".join(paths), f"--out={out}"])
    return out


def run_serve_phase(session, rounds, tally, args, traced):
    """Rounds until --seconds have passed and each class has
    SERVE_MIN_SAMPLES latencies."""
    walls, events, requests, samples = [], [], [], []
    limit = max(SERVE_MAX_SECONDS, 3 * args.seconds)
    start = time.perf_counter()
    while True:
        counts = {cls: sum(1 for s in samples if s["class"] == cls) for cls in SERVE_ROUND}
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and min(counts.values()) >= SERVE_MIN_SAMPLES:
            break
        if elapsed > limit:
            raise RuntimeError(f"serve phase too slow: {counts} after {elapsed:.0f} s")
        wall, out = session.round(next(rounds), tally, traced)
        walls.append(wall)
        events.append(sum(sample["events"] for sample in out))
        requests.append(len(out))
        samples += out
    return {"walls": walls, "events": events, "requests": requests, "samples": samples}


def serve_layers(phases, offline, offline_paths, stats):
    untraced, traced = phases
    samples = traced["samples"]
    layer = zero_layers()
    specs = offline["specs"]
    entries = {cls: [specs[path] for key, path in offline_paths.items() if key.startswith(cls)]
               for cls in SERVE_ROUND}
    share = {cls: n / sum(SERVE_ROUND.values()) for cls, n in SERVE_ROUND.items()}

    def class_median(cls, key):
        """Median over the class's specs of each spec's median over runs."""
        return median([median([run[key] for run in e["runs"]]) for e in entries[cls]])

    def mix(key):
        return sum(share[cls] * class_median(cls, key) for cls in SERVE_ROUND)

    def ingest(key):
        return median([e[key] for e in entries["trace" if key != "generate_s" else "point"]])

    layer.update({
        "trace.scan_s": ingest("scan_s"),
        "trace.parse_s": ingest("parse_s"),
        "workload.pull_s": ingest("pull_s"),
        "workload.generate_s": ingest("generate_s"),
        "exp.config_build_s": mix("config_s"),
        "exp.manifest_write_s": mix("manifest_s"),
        "exp.manifest_bytes": mix("manifest_bytes"),
        "core.run_s": statistics.fmean(s["run_s"] for s in samples),
        "core.events": statistics.fmean(s["events"] for s in samples),
        "core.jobs": statistics.fmean(s["jobs"] for s in samples),
        "exp.runner_busy_frac": sum(s["run_s"] for s in samples)
        / (RUNNER_WIDTH * sum(traced["walls"])),
        "serve.cache_hits": stats["cache"]["hits"],
        "serve.cache_misses": stats["cache"]["misses"],
        "serve.cache_resident_mb": stats["cache"]["resident_bytes"] / 1e6,
        "serve.runs_failed": stats["runs"]["failed"],
    })
    layer["trace.parse_mb_per_s"] = ingest("log_bytes") / 1e6 / layer["trace.parse_s"]
    layer["core.self_s"] = layer["core.run_s"] - (
        share["trace"] * layer["workload.pull_s"]
        + share["point"] * layer["workload.generate_s"])
    for cls in SERVE_ROUND:
        # Latencies are end-to-end figures: from the untraced phase.
        latencies = [s["latency"] for s in untraced["samples"] if s["class"] == cls]
        summary = benchstats.latency_summary(latencies)
        if summary["p"] is None or summary["p"] < 95.0:
            raise RuntimeError(f"{cls}: {summary['n']} samples are too few for a p95")
        offline_total = class_median(cls, "total_s")
        layer[f"serve.{cls}.latency_p50_s"] = summary["p50"]
        layer[f"serve.{cls}.latency_p95_s"] = benchstats.percentile(latencies, 95.0)
        mine = [s for s in samples if s["class"] == cls]
        layer[f"serve.{cls}.submit_ack_s"] = median([s["ack"] for s in mine])
        layer[f"serve.{cls}.result_wait_s"] = median([s["wait"] for s in mine])
        layer[f"serve.{cls}.overhead_s"] = summary["p50"] - offline_total
    registry = []
    for sample in samples:
        metrics = sample["metrics"]
        counters = metrics.get("counters", {})
        series = metrics.get("series", {})
        registry.append({
            "calendar_pending_mean": series.get("calendar.pending", {}).get("mean", 0.0),
            "queue_waiting_mean": series.get("queue.waiting", {}).get("mean", 0.0),
            "placement_attempts": counters.get("placement.attempts", 0),
            "placement_rejects": counters.get("placement.rejects", 0),
            "jobs_started": counters.get("jobs.started", 0),
        })
    layer.update(policy_layers(registry))
    layer["bench.trace_overhead_s"] = median(traced["walls"]) - median(untraced["walls"])
    return layer


# -- per-layer metrics shared by the workloads --------------------------------

def sliced_seconds(slices):
    """A pass timed in slices: the sum of its calibrated slices."""
    return sum(calibrated(*slice_) for slice_ in slices)


def calibrate_replays(phases):
    """Calibrate each replay: its set-up by the yardsticks around it, its
    wall and the traced isolated passes slice by slice."""
    for phase in phases:
        for rep in phase["reps"]:
            rep["raw_wall_s"] = sum(seconds for seconds, _ in rep["slices"])
            rep["wall_s"] = sliced_seconds(rep["slices"])
            rep["setup_s"] = calibrated(rep["setup_s"], rep["setup_yardstick_s"])
            rep["manifest_s"] = calibrated(rep["manifest_s"], rep["manifest_yardstick_s"])
            rep["run_s"] = rep["wall_s"] - rep["manifest_s"]
            for key in ("scan", "parse", "pull", "memory_pull", "memory_run"):
                if key in rep:
                    rep[key + "_s"] = sliced_seconds(rep[key])


def calibrate_sweeps(phases):
    """Calibrate each run_sweep call by the yardsticks around it; a sweep's
    wall is the sum over its specs. In a traced rep, calibrate each point
    of the point pass by its own yardstick: a spec's makespan is then the
    largest sum of one worker's point times, and its tail the part of that
    no other worker overlaps."""
    for phase in phases:
        for rep in phase["reps"]:
            sweeps = rep["sweeps"]
            rep["raw_wall_s"] = sum(s["seconds"] for s in sweeps)
            rep["wall_s"] = sum(calibrated(s["seconds"], s["yardstick_s"]) for s in sweeps)
            rep["events"] = sum(s["events"] for s in sweeps)
            rep["runs"] = sum(s["runs"] for s in sweeps)
            rep["yardstick_s"] = median([s["yardstick_s"] for s in sweeps])
            if "points" not in rep:
                continue
            rep["generate_s"] = sliced_seconds(rep["generate"])
            rep["makespan_s"], rep["tail_s"] = 0.0, 0.0
            for spec in range(len(sweeps)):
                per_worker = {}
                for point in rep["points"]:
                    if point["spec"] != spec:
                        continue
                    point["run_s"] = calibrated(point["end"] - point["start"],
                                                point["yardstick_s"])
                    per_worker[point["worker"]] = per_worker.get(point["worker"], 0.0) \
                        + point["run_s"]
                loads = sorted(per_worker.values(), reverse=True) + [0.0]
                rep["makespan_s"] += loads[0]
                rep["tail_s"] += loads[0] - loads[1]


def zero_layers():
    """Every per-layer metric at 0: a layer a workload does not exercise
    (a trace scan in the synthetic sweep, say) keeps 0."""
    return {name: 0.0 for name in PER_LAYER}


def policy_layers(runs):
    """Registry readings, per simulation run (means over runs)."""
    attempts = sum(r["placement_attempts"] for r in runs)
    return {
        "sim.calendar_pending_mean": statistics.fmean(r["calendar_pending_mean"] for r in runs),
        "policy.queue_waiting_mean": statistics.fmean(r["queue_waiting_mean"] for r in runs),
        "policy.placement_attempts": attempts / len(runs),
        "policy.placement_rejects": sum(r["placement_rejects"] for r in runs) / len(runs),
        "policy.useful_ratio": sum(r["jobs_started"] for r in runs) / attempts if attempts else 0.0,
    }


WORKLOADS = {
    "archive_replay": archive_replay,
    "fig3_sweep": fig3_sweep,
    "serve_mixed": serve_mixed,
}

PER_LAYER = []  # filled from BENCHMARK.json


# -- output -------------------------------------------------------------------

def load_definition():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        definition = json.load(handle)
    for group in ("end_to_end", "per_layer"):
        for metric in definition[group]:
            benchstats.check_name(metric["name"])
            benchstats.check_unit(metric["unit"])
    return definition


def emit(outcome, definition, args, tools, spans_path):
    group = "per_layer" if args.trace else "end_to_end"
    values = outcome["layer"] if args.trace else outcome["e2e"]
    metrics = {}
    for metric in definition[group]:
        name = metric["name"]
        if name not in values:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}
    tally = outcome["tally"]
    log(f"machine: nproc {os.cpu_count()}, runner width {RUNNER_WIDTH}, serve clients "
        f"{CLIENTS}, compiler {tools.info.get('compiler')}, build "
        f"{tools.info.get('build_type')}")
    for line in outcome["report"]:
        log(line)
    for reason in tally.reasons[:10]:
        log(f"FAILED: {reason}")
    log(f"failed_frac: {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted} "
        "operations)")
    for name, metric in metrics.items():
        log(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if spans_path:
        log(f"spans: {spans_path}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def write_spans(outcome, args):
    spans = outcome["spans"]
    if not args.trace:
        return None
    for span, self_s in zip(spans, benchstats.self_times(spans)):
        span["self"] = self_s
    os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
    path = os.path.join(BUILD_ROOT, "traces", f"{args.workload}-seed{args.seed}.json")
    write_json(path, {"workload": args.workload, "seed": args.seed, "spans": spans})
    return path


# -- steadiness ---------------------------------------------------------------

def steadiness(args, definition):
    """Run each workload k times on seeds --seed .. --seed + k - 1 and print,
    per end-to-end metric, the median, the quartiles and the spread against
    its bound."""
    names = [args.workload] if args.workload else [w["name"] for w in definition["workloads"]]
    bounds = {m["name"]: m for m in definition["end_to_end"]}
    worst = 0.0
    for workload in names:
        values = {name: [] for name in bounds}
        for k in range(args.steadiness):
            seed = args.seed + k
            result = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            last = json.loads(result.stdout.strip().splitlines()[-1])
            if result.returncode != 0 or not last["correct"]:
                raise RuntimeError(f"{workload} seed {seed} failed")
            for name in values:
                values[name].append(last["metrics"][name]["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.5g}" for n, v in values.items()))
        log(f"{'workload':<15}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
            f"{'spread':>9}{'bound':>7}{'share':>7}")
        for name, series in values.items():
            q1, q2, q3 = benchstats.quartiles(series)
            share = (q3 - q1) / q2 / bounds[name]["bound"]
            if name != "setup_s":
                worst = max(worst, share)
            log(f"{workload:<15}{name:<14}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                f"{(q3 - q1) / q2:>9.3%}{bounds[name]['bound']:>7.2f}{share:>7.2f}")
    log(f"largest spread / bound (setup_s aside): {worst:.2f} (steady below 0.33)")
    return 0


# -- main ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="run each workload this many times on consecutive seeds")
    args = parser.parse_args()

    definition = load_definition()
    PER_LAYER.extend(m["name"] for m in definition["per_layer"])
    if args.steadiness:
        build()
        return steadiness(args, definition)
    if not args.workload:
        parser.error("--workload is required")
    tools = build()
    # Relative, so the daemon's socket path stays within the 108 bytes a Unix
    # socket address holds whatever $CARGO_TARGET_DIR is.
    work = os.path.relpath(
        os.path.join(BUILD_ROOT, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    try:
        outcome = WORKLOADS[args.workload](tools, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return emit(outcome, definition, args, tools, write_spans(outcome, args))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # noqa: BLE001 - any failure is a failed run
        sys.stderr.write(f"perfbench: {error}\n")
        sys.exit(1)
