#!/usr/bin/env python3
"""Serving benchmark for `gusdb serve --tcp`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it builds `gusdb` and
`perfbench/replay.exe` with dune first.  Workloads (README.md says why
each exists): hot-cache, fresh-mix, churn.

One run:
  1. generates the request sequences from --seed, and answers the
     verification requests in process (replay.exe reference);
  2. cold-starts `gusdb serve --tcp`, timing spawn -> listening ->
     registered -> prepared (-> warmed);
  3. drives that server for --seconds, in five segments, from this one
     process over two connections in a closed loop (each connection sends
     its next request when the previous answer arrives), diffing the
     server's `stats` around it; spare servers are cold-started and timed
     between the segments and after the last; latency and throughput are
     reported over windows of the segments (see MIN_WINDOW);
  4. re-sends the verification requests, each twice, and checks every
     estimate and stddev bit for bit against step 1;
  5. with --trace 1, replays the same sequences in process through the
     layers (replay.exe trace) for the per-layer split.

The last stdout line is the result object; diagnostics go to stderr, and
the server's raw counter deltas to the stdout line before the result.
Exits 1 on any wrong answer, 2 when the program cannot be built.
"""

import argparse
import gc
import json
import math
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")
GUSDB = os.path.join(ROOT, "_build", "default", "bin", "gusdb.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "perfbench", "replay.exe")
CORPUS = os.path.join(ROOT, "examples", "workload")

CONNS = 2  # the box has 2 vCPUs; the generator is one process
# Latency and throughput are taken per window of consecutive answers, up
# to WINDOWS_PER_SEGMENT per segment and each at least MIN_WINDOW long (so
# that its p99 has 10 answers beyond it; a run with fewer answers is one
# window): throughput and p50 are the median over the windows, p99 their
# lower quartile.  The host's slow spells (seconds each, see README.md)
# only make windows worse, and over a whole run a spell would supply most
# of the tail; the windows' own p99s still spread most, hence the quartile.
MIN_WINDOW = 1000
WINDOWS_PER_SEGMENT = 6
# The timed phase runs in SEGMENTS equal parts.  setup_s is the median of
# COLD_STARTS cold starts: the first brings up the server that is timed,
# the others go between and after the segments, so that set-up samples
# fall into the host's fast and slow spells (seconds each) like the timed
# requests do.  A hot-cache start takes ~2 s, the others under 0.1 s.
SEGMENTS = 5
COLD_STARTS = {"hot-cache": 5, "fresh-mix": 10, "churn": 10}
DATASET = "tpch"
FIXED_SEEDS = (1, 2, 3)  # the accuracy set: the same in every run
RUN_PREFIX = 4  # per corpus-reading connection, its first timed requests are verified too
CHURN_SCALE = 0.1
CHURN_PREPARES_PER_WRITE = 16
CORPUS_HANDLES = ("q01", "q02", "q03", "q06")
CLK_TCK = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def line(**fields):
    return json.dumps(fields, separators=(",", ":"))


# ---------------------------------------------------------------- inputs


def corpus():
    """The corpus statements the workloads use, by handle name."""
    out = {}
    for handle in CORPUS_HANDLES:
        [fname] = [f for f in os.listdir(CORPUS) if f.startswith(handle + "_")]
        with open(os.path.join(CORPUS, fname)) as f:
            text = " ".join(
                l.strip() for l in f if l.strip() and not l.strip().startswith("--")
            )
        out[handle] = text.rstrip(";").strip()
    return out


def execute(handle, seed):
    return line(op="execute", handle=handle, seed=seed)


def prepare(handle, sql):
    return line(op="prepare", dataset=DATASET, name=handle, sql=sql)


def cycle(items):
    while True:
        yield from items


def adhoc_sql(rng, k):
    """Fresh SQL text for churn's writer; k cycles the four shapes."""
    p = rng.randint(5, 50)
    shape = k % 4
    if shape == 0:
        return (f"SELECT SUM(l_quantity) FROM lineitem TABLESAMPLE ({p} PERCENT) "
                f"WHERE l_quantity > {rng.randint(1, 40)}")
    if shape == 1:
        return (f"SELECT COUNT(*) FROM lineitem TABLESAMPLE ({p} PERCENT), orders "
                f"WHERE l_orderkey = o_orderkey AND o_totalprice > {rng.randint(0, 50000)}")
    if shape == 2:
        return (f"SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE ({p} PERCENT), "
                f"orders TABLESAMPLE ({rng.randint(10, 60)} PERCENT) "
                f"WHERE l_orderkey = o_orderkey AND l_quantity < {rng.randint(10, 50)}")
    return (f"SELECT AVG(l_extendedprice) FROM lineitem TABLESAMPLE ({p} PERCENT) "
            f"WHERE l_discount < 0.0{rng.randint(2, 9)} GROUP BY l_returnflag")


class Workload:
    """The request sequences of one workload, all drawn from the seed.

    setup: [(conn, line)], sent one at a time on every cold start;
    streams(): one endless request generator per connection, the same
    sequence on every call; verify: lines re-sent after timing (fixed:
    the part that is the same in every run); replay_per_conn: how much of
    each stream the in-process trace replays, after replay_warm_per_conn
    requests that bring it to the steady state of the timed phase."""

    def __init__(self, name, seed, sql, snapshot):
        self.name = name
        self.seed = seed
        self.replay_warm_per_conn = 0
        rng = random.Random(f"{name}/{seed}")
        if name == "churn":
            self.register = line(op="register", name=DATASET, source="snapshot", path=snapshot)
            # The writer (conn 0) prepares its own ad-hoc handles; the
            # reader (conn 1) holds the corpus, q06 only for verification.
            self.setup = [(0, self.register)] + [(1, prepare(h, sql[h])) for h in CORPUS_HANDLES]
            self.keys = [execute(h, s) for h in ("q01", "q02", "q03")
                         for s in rng.sample(range(10**5, 10**9), 4)]
            self.replay_per_conn = 2 * (1 + 3 * CHURN_PREPARES_PER_WRITE)
        else:
            register = line(op="register", name=DATASET, scale=1)
            self.setup = [(0, register)] + [
                (c, prepare(h, sql[h])) for c in range(CONNS) for h in CORPUS_HANDLES
            ]
            if name == "hot-cache":
                # 64 keys < the 128-entry response cache, warmed in setup
                self.keys = [execute(h, s) for h in CORPUS_HANDLES
                             for s in rng.sample(range(10**5, 10**9), 16)]
                self.setup += [(0, k) for k in self.keys]
                self.replay_per_conn = 1000
            elif name == "fresh-mix":
                self.base = rng.randrange(10**6, 10**9)
                # fill the 128-entry cache first: from then on every miss evicts
                self.replay_warm_per_conn = 64
                self.replay_per_conn = 20
            else:
                raise SystemExit(f"unknown workload {name!r}")
        self.fixed = [execute(h, s) for h in CORPUS_HANDLES for s in FIXED_SEEDS]
        run_subset = []
        for c, stream in enumerate(self.streams()):
            if name == "churn" and c == 0:
                continue  # the writer's handles are gone by verification time
            run_subset += [next(stream) for _ in range(RUN_PREFIX)]
        self.verify = self.fixed + run_subset

    def streams(self):
        rng = random.Random(f"{self.name}/{self.seed}/streams")
        if self.name == "hot-cache":
            return [cycle(rng.sample(self.keys, len(self.keys))) for _ in range(CONNS)]
        if self.name == "fresh-mix":
            # q06 (~100 ms, against ~10 ms for a streamed statement) is one
            # request in ten and about half the busy time.  Only connection
            # 0 sends it: two q06 never queue behind each other, which
            # would put a second mode into the tail that p99 samples.
            mixes = [["q06", "q01", "q02", "q03", "q01"], ["q01", "q02", "q03"]]
            return [self._fresh(mix, c) for c, mix in enumerate(mixes)]
        return [self._churn_writer(rng), cycle(rng.sample(self.keys, len(self.keys)))]

    def _fresh(self, mix, c):
        k = 0
        while True:
            for h in mix:
                yield execute(h, self.base + CONNS * k + c)  # never seen before
                k += 1

    def _churn_writer(self, rng):
        # Re-register (version bump, cache invalidation, re-prepare of the
        # reader's handles on next use), then fresh ad-hoc SQL, each
        # executed twice with one seed: a miss, then a hit.
        k = 0
        base = rng.randrange(10**6, 10**9)
        while True:
            yield self.register
            for i in range(CHURN_PREPARES_PER_WRITE):
                handle = f"a{i}"
                yield prepare(handle, adhoc_sql(rng, k))
                # distinct per statement: the answer check keys on the line
                yield execute(handle, base + k)
                yield execute(handle, base + k)
                k += 1

    def script(self):
        """What replay.exe reads: setup, a round-robin prefix of the
        streams (warm, then timed), and the verification set."""
        streams = self.streams()

        def take(n):
            return [(c, next(streams[c])) for _ in range(n) for c in range(CONNS)]

        warm = take(self.replay_warm_per_conn)
        return {"setup": self.setup, "warm": warm, "timed": take(self.replay_per_conn),
                "verify": [(CONNS - 1, v) for v in self.verify]}


# ------------------------------------------------------------- the server


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, req):
        self.sock.sendall(req.encode() + b"\n")
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                resp, self.buf = self.buf[:i], self.buf[i + 1:]
                return resp
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


class Server:
    """One `gusdb serve --tcp` child process."""

    def __init__(self):
        port_file = os.path.join(OUT, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        self.stderr = open(os.path.join(OUT, "server.stderr"), "ab")
        self.proc = subprocess.Popen(
            [GUSDB, "serve", "--tcp", "--port", "0", "--port-file", port_file],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.stderr)
        deadline = time.monotonic() + 60
        while True:
            if os.path.exists(port_file):
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("gusdb serve did not start")
            time.sleep(0.0005)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            return next(int(l.split()[1]) for l in f if l.startswith("VmHWM:")) / 1024.0

    def cpu_ms(self):
        """utime + stime so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1000.0 / CLK_TCK

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


def is_ok(resp):
    return resp.startswith(b'{"ok":true')


def check_setup(resp, req):
    if not is_ok(resp):
        raise RuntimeError(f"setup request failed: {req} -> {resp[:300]!r}")


def cold_start(w):
    """Spawn a server and bring it to ready; returns (server, conns, seconds)."""
    t0 = time.perf_counter()
    server = Server()
    try:
        conns = [Conn(server.port) for _ in range(CONNS)]
        for c, req in w.setup:
            check_setup(conns[c].request(req), req)
    except BaseException:
        server.stop()
        raise
    return server, conns, time.perf_counter() - t0


def stats(conn):
    m = json.loads(conn.request(line(op="stats")))["metrics"]
    return m["counters"], m["histograms"]


# ---------------------------------------------------------- the timed loop


def body(resp):
    """An execute response without its per-call fields (cached, wall_us):
    equal for every answer to one request."""
    i = resp.find(b',"cached":')
    if i < 0:
        return resp
    return resp[:i] + resp[resp.find(b',"result":', i):]


class Tally:
    """What the timed segments saw."""

    def __init__(self):
        # per segment: (start, [(answered at, round trip, good)], server
        # utime + stime in ms); times in s
        self.segments = []
        self.ok = self.failed = self.attempted = self.cached = 0

    def rtts(self):
        return sorted(rtt for _, answers, _ in self.segments for _, rtt, _ in answers)

    def windows(self):
        """[(good answers, seconds, sorted round trips)] per window."""
        if any(len(answers) < MIN_WINDOW for _, answers, _ in self.segments):
            elapsed = sum(answers[-1][0] - start for start, answers, _ in self.segments)
            return [(self.ok, elapsed, self.rtts())]
        out = []
        for start, answers, _ in self.segments:
            k = min(WINDOWS_PER_SEGMENT, len(answers) // MIN_WINDOW)
            prev = start
            for i in range(k):
                chunk = answers[len(answers) * i // k:len(answers) * (i + 1) // k]
                out.append((sum(good for _, _, good in chunk), chunk[-1][0] - prev,
                            sorted(rtt for _, rtt, _ in chunk)))
                prev = chunk[-1][0]
        return out

    def cpu_ms_per_req(self):
        """Median over the segments."""
        return statistics.median(cpu / len(answers) for _, answers, cpu in self.segments)


def timed_segment(server, conns, streams, seconds, bodies, tally):
    """Closed loop for `seconds`: each connection has one request in
    flight and sends the next when the answer arrives."""
    sel = selectors.DefaultSelector()
    pending = [None] * len(conns)

    def send(i):
        req = next(streams[i]).encode()
        pending[i] = (req, time.perf_counter())
        conns[i].sock.sendall(req + b"\n")
        tally.attempted += 1

    answers = []
    # a collection pause here would show as the other connection's latency
    gc.collect()
    gc.disable()
    cpu0 = server.cpu_ms()
    start = time.perf_counter()
    deadline = start + seconds
    for i, c in enumerate(conns):
        c.sock.setblocking(False)
        sel.register(c.sock, selectors.EVENT_READ, i)
        send(i)
    open_conns = len(conns)
    while open_conns:
        for key, _ in sel.select():
            i = key.data
            c = conns[i]
            chunk = c.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            c.buf += chunk
            j = c.buf.find(b"\n")
            if j < 0:
                continue
            now = time.perf_counter()
            resp, c.buf = c.buf[:j], c.buf[j + 1:]
            req, sent = pending[i]
            good = is_ok(resp)
            if good and b'"op":"execute"' in resp[:40]:
                b = body(resp)
                good = bodies.setdefault(req, b) == b
                tally.cached += b'"cached":true' in resp
            if good:
                tally.ok += 1
            else:
                tally.failed += 1
                log(f"bad answer to {req.decode()}: {resp[:300]!r}")
            answers.append((now, now - sent, good))
            if now < deadline:
                send(i)
            else:
                pending[i] = None
                sel.unregister(c.sock)
                open_conns -= 1
    tally.segments.append((start, answers, server.cpu_ms() - cpu0))
    gc.enable()
    for c in conns:
        c.sock.setblocking(True)
    sel.close()


# ----------------------------------------------------------- verification


def cells(resp):
    """[(group keys, label, estimate, stddev)] of one execute answer."""
    r = json.loads(resp)["result"]
    flat = lambda keys, cs: [(keys, c["label"], c["estimate"], c["stddev"]) for c in cs]
    out = flat("", r["cells"])
    for g in r.get("groups", []):
        out += flat("|".join(g["keys"]), g["cells"])
    return out


def same_cells(got, want):
    def num(x):
        return float("nan") if x is None else float(x)

    def bits(x):
        return "nan" if math.isnan(x) else x.hex()

    return len(got) == len(want) and all(
        gk == wk and gl == wl and bits(num(ge)) == bits(float.fromhex(we)) and bits(num(gs)) == bits(float.fromhex(ws))
        for (gk, gl, ge, gs), (wk, wl, we, ws) in zip(got, want))


def verify(conn, w, reference, bodies):
    """Re-send each verification request twice (a miss, then a hit, for
    the requests that have no cache entry) and check the answers, and the
    timed phase's answers to the same requests, bit for bit.  Returns
    (attempted, failed, rel_ci_geomean over the fixed set)."""
    attempted = failed = 0
    logs = []
    for req, want in zip(w.verify, reference):
        answers = [conn.request(req) for _ in range(2)]
        attempted += 2
        timed = bodies.get(req.encode())
        for resp in answers + ([timed] if timed is not None else []):
            if not (is_ok(resp) and same_cells(cells(resp), want)):
                failed += 1
                log(f"MISMATCH {req}: got {resp[:200]!r}, want {want}")
        if req in w.fixed and is_ok(answers[0]):
            logs += [math.log(1.96 * float(sd) / abs(float(est)))
                     for _, _, est, sd in cells(answers[0]) if sd is not None and est]
    return attempted, failed, math.exp(math.fsum(logs) / len(logs))


# ------------------------------------------------------------------ misc


def host_probe():
    """A fixed amount of pure-Python work, in ms (median of 5)."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for i in range(200000):
            x += i * i % 7
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def quantile(sorted_xs, q):
    return sorted_xs[min(len(sorted_xs) - 1, max(0, math.ceil(q * len(sorted_xs)) - 1))]


def lower_quartile(xs):
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=4)[0]


def hist_quantile(before, after, q):
    """Quantile of the observations between two cumulative-bucket
    snapshots of one histogram, by Metrics.quantile's rule."""
    bounds = [b["le"] for b in after["buckets"]]
    cum = [a["count"] - b["count"] for a, b in zip(after["buckets"], before["buckets"])]
    total = cum[-1]
    rank = q * total
    below = 0
    for i, (le, c) in enumerate(zip(bounds, cum)):
        if le == "+inf":
            return bounds[i - 1]
        if c > 0 and c >= rank:
            lo = bounds[i - 1] if i > 0 else 0.0
            return lo + (le - lo) * max(0.0, rank - below) / (c - below)
        below = c
    return float("nan")


def delta(before, after):
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./bin/gusdb.exe", "./perfbench/replay.exe"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0 or not os.path.exists(GUSDB):
        log(r.stderr.decode(errors="replace")[-4000:])
        log("perfbench: cannot build gusdb from this directory")
        sys.exit(2)


def replay(*args):
    r = subprocess.run([REPLAY, *args], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return r.stdout.decode().splitlines()


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["hot-cache", "fresh-mix", "churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    snapshot = os.path.join(OUT, "churn.snap")
    if args.workload == "churn":
        subprocess.run([GUSDB, "snapshot", "-s", str(CHURN_SCALE), "-o", snapshot],
                       check=True, stdout=subprocess.DEVNULL)
    w = Workload(args.workload, args.seed, corpus(), snapshot)
    script_path = os.path.join(OUT, f"{w.name}.script.json")
    with open(script_path, "w") as f:
        json.dump(w.script(), f)
    reference = [json.loads(l) for l in replay("reference", script_path)]

    probe_before = host_probe()
    setups = []

    def start():
        server, conns, secs = cold_start(w)
        setups.append(secs)
        return server, conns

    def discard(server, conns):
        for c in conns:
            c.close()
        server.stop()

    # The spare cold starts go between the timed segments, so that the
    # set-up samples spread over the run like the timed ones do.
    spares = [0] * SEGMENTS
    for k in range(COLD_STARTS[w.name] - 1):
        spares[k % SEGMENTS] += 1
    server, conns = start()
    try:
        reader = conns[-1]
        c0, h0 = stats(reader)
        bodies = {}
        tally = Tally()
        streams = w.streams()
        for k in range(SEGMENTS):
            timed_segment(server, conns, streams, args.seconds / SEGMENTS, bodies, tally)
            if k < SEGMENTS - 1:
                for _ in range(spares[k]):
                    discard(*start())
        # read before verification, whose cold executions are not part
        # of the workload's traffic
        rss_mb = server.peak_rss_mb()
        c1, h1 = stats(reader)
        v_attempted, v_failed, rel_ci = verify(reader, w, reference, bodies)
        c2, h2 = stats(reader)
    finally:
        discard(server, conns)
    for _ in range(spares[-1]):
        discard(*start())
    probe_after = host_probe()
    rtts = tally.rtts()
    n = len(rtts)
    windows = tally.windows()
    p50_ms = statistics.median(quantile(ws, 0.50) for _, _, ws in windows) * 1e3
    p99_ms = lower_quartile([quantile(ws, 0.99) for _, _, ws in windows]) * 1e3
    throughput = statistics.median(good / secs for good, secs, _ in windows)
    cached = tally.cached
    attempted = tally.attempted + v_attempted
    failed = tally.failed + v_failed
    shortest = min(len(ws) for _, _, ws in windows)
    log(f"{w.name} seed {args.seed}: {n} timed answers in {len(windows)} window(s), "
        f"the shortest {shortest} long ({shortest - math.ceil(0.99 * shortest)} beyond its p99), "
        f"{cached} cached, {failed} failed of {attempted}; setups {['%.3f' % s for s in setups]} s; "
        f"host probe {probe_before:.1f} ms before, {probe_after:.1f} ms after")
    deltas = {
        "timed": {"counters": delta(c0, c1),
                  "serve.latency_us": {k: h1["serve.latency_us"][k] - h0["serve.latency_us"][k]
                                       for k in ("count", "sum")}},
        "verify": {"counters": delta(c1, c2)},
        "latency_samples": n,
        "host_probe_ms": [probe_before, probe_after],
    }
    print(json.dumps({"server_deltas": deltas}))

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if args.trace == 0:
        metrics = {
            "throughput_rps": metric(throughput, "req/s"),
            "latency_p50_ms": metric(p50_ms, "ms"),
            "latency_p99_ms": metric(p99_ms, "ms"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
            "rel_ci_geomean": metric(rel_ci, "ratio"),
            "setup_s": metric(statistics.median(setups), "s"),
            "server_rss_mb": metric(rss_mb, "MB"),
            "server_cpu_ms_per_req": metric(tally.cpu_ms_per_req(), "ms"),
        }
    else:
        layers = json.loads(replay("trace", script_path, os.path.join(OUT, f"{w.name}.spans.json"))[-1])
        server_p50_us = hist_quantile(h0["serve.latency_us"], h1["serve.latency_us"], 0.5)
        # both over the whole timed phase
        gap_us = quantile(rtts, 0.50) * 1e6 - server_p50_us
        core_p50 = layers.pop("_timed_core_p50_us")
        layers["server.gap_us"] = gap_us
        pass_sum = h2["moments.pass_us"]["sum"] - h0["moments.pass_us"]["sum"]
        executed = c2.get("cache.misses", 0) - c0.get("cache.misses", 0)
        layers["moments.pass_us_per_req"] = pass_sum / executed
        # latency_p50 = gap + server p50; what the replay's split of the
        # server's part leaves unexplained
        layers["trace.remainder_us"] = server_p50_us - layers["session.self_us"] - core_p50
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in per_layer}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
