#!/usr/bin/env python3
"""End-to-end benchmark of the multi-level ILT service.

Run from the root of a checkout:

    python3 iltbench/run.py --workload fast --seed 1 --seconds 35 --trace 0

It builds cmd/iltserver from the checkout's source (build cache in
.bench_build/), starts it on a loopback port and drives it through its HTTP
API with ILT jobs on clips generated from --seed, a new clip for every job.
Every job runs a whole recipe and evaluates the contest metrics on the
final mask, so a job's latency is the turnaround a user of the service sees.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Every job is checked: it must finish,
run its recipe's iteration budget, report finite contest metrics with an L2
error below the target area, and return a mask that covers most of its
target without spreading far beyond it;
after the timed window the first clips are optimized again and must give
the same masks bit for bit.
"""

import argparse
import ctypes
import http.client
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SERVER_BIN = os.path.join(BUILD, "bin", "iltserver")

# A workload is a recipe on M1 clips of a 1024-nm field, run by one
# closed-loop client, one job at a time on one worker: on a small, shared
# host a job spread over every CPU waits on whichever is slowest.
WORKLOADS = {
    # The fast recipe (35 low-resolution iterations at s = 4, then 5
    # high-resolution ones) on 256-px clips at 4 nm pixels; the
    # high-resolution iterations take most of a job's time.
    "fast": dict(n=256, field_nm=1024, kernels=12, recipe="fast", iterdiv=1, workers=1),
    # The exact recipe with its budgets divided by 8 (10 low-resolution
    # iterations, then 2 high-resolution ones) on 512-px clips at 2 nm
    # pixels: every transform is four times larger, a working set that
    # outgrows the CPU caches.
    "exact": dict(n=512, field_nm=1024, kernels=12, recipe="exact", iterdiv=8, workers=1),
}

RECIPE_ITERS = {"fast": [35, 5], "exact": [80, 10]}

# M1 shapes as (width, length, leg) in nm; leg > 0 adds a perpendicular leg
# at one end. Every clip holds the same shapes, one to a cell of a 2x2 grid
# at a random offset and orientation, so clips differ in layout but not in
# feature mix or density, and mask quality stays comparable from seed to
# seed.
M1_SHAPES = [(60, 220, 0), (70, 180, 0), (80, 150, 120), (90, 200, 0)]

SETUP_REPS = 5
RECHECK_CLIPS = 2
LITHO_PHASES = ["litho.fft_forward", "litho.socs", "litho.fft_inverse", "litho.adjoint"]


class BenchError(Exception):
    pass


# --- build ---------------------------------------------------------------


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps telemetry counters under the user config dir.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    os.makedirs(os.path.dirname(SERVER_BIN), exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", SERVER_BIN, "./cmd/iltserver"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850,
    )
    if proc.returncode != 0:
        raise BenchError("go build failed:\n" + proc.stdout.decode(errors="replace"))


# --- inputs --------------------------------------------------------------


def shape_rects(rng, w, length, leg):
    """A length x w bar in a random orientation, plus a w-wide leg at a
    random end and side when leg > 0, with its bounding box at the origin."""
    rects = [(0, 0, length, w)]
    if leg:
        lx = 0 if rng.random() < 0.5 else length - w
        rects.append((lx, w, lx + w, w + leg) if rng.random() < 0.5 else (lx, -leg, lx + w, 0))
    if rng.random() < 0.5:
        rects = [(y0, x0, y1, x1) for x0, y0, x1, y1 in rects]
    x, y = min(r[0] for r in rects), min(r[1] for r in rects)
    return [(x0 - x, y0 - y, x1 - x, y1 - y) for x0, y0, x1, y1 in rects]


def make_clip(wl, seed, index):
    """Clip number index of a seed, as a layout plus its target rects and
    area: each shape in its own cell of a grid inside the margin, at a
    random offset that keeps it half the spacing rule from the cell's edges."""
    rng = random.Random(f"{seed}:{index}")
    n, crop = wl["n"], wl["field_nm"] / 2048
    pixel_nm = wl["field_nm"] / n
    px = lambda nm: round(nm / pixel_nm)
    shapes = [shape_rects(rng, *(px(v) for v in s)) for s in M1_SHAPES]
    cells, margin, gap = 2, px(360 * crop), px(70)
    size, edge = (n - 2 * margin) // cells, (gap + 1) // 2
    rects = []
    for shape, c in zip(shapes, rng.sample(range(cells * cells), len(shapes))):
        x = margin + c % cells * size + rng.randint(edge, size - edge - max(r[2] for r in shape))
        y = margin + c // cells * size + rng.randint(edge, size - edge - max(r[3] for r in shape))
        rects.extend((x0 + x, y0 + y, x1 + x, y1 + y) for x0, y0, x1, y1 in shape)
    layout = f"SIZE {n}\nPIXEL {pixel_nm:g}\n" + "".join("RECT %d %d %d %d\n" % r for r in rects)
    area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects) * pixel_nm ** 2
    return dict(index=index, rects=rects, layout=layout, area_nm2=area)


def job_request(wl, clip, iterdiv):
    return {
        "layout": clip["layout"], "field_nm": wl["field_nm"], "kernels": wl["kernels"],
        "recipe": wl["recipe"], "iterdiv": iterdiv, "workers": wl["workers"],
        "metrics": True,
    }


# --- server --------------------------------------------------------------


def die_with_parent():
    # The server must not outlive the benchmark, even one that is killed.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Server:
    """One iltserver process on a loopback port."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [SERVER_BIN, "-addr", "127.0.0.1:0", "-jobs", "1", "-queue", "4"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            preexec_fn=die_with_parent,
        )
        line = self.proc.stdout.readline().decode()
        prefix = "iltserver listening on http://"
        if not line.startswith(prefix):
            self.stop()
            raise BenchError(f"iltserver did not start: {line!r}")
        host, port = line[len(prefix):].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get_json(self, path):
        status, data = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path}: status {status}: {data[:200]!r}")
        return json.loads(data)

    def submit(self, req):
        status, data = self.request("POST", "/jobs", json.dumps(req).encode())
        if status != 202:
            raise BenchError(f"submit: status {status}: {data[:200]!r}")
        return json.loads(data)["id"]

    def follow(self, job_id, iters=None):
        """Blocks on the job's server-sent event stream until its end frame.
        With iters set, appends (highres, seconds) for each iteration event."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=300)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raise BenchError(f"events {job_id}: status {resp.status}")
            highres, event = {}, None
            while True:
                line = resp.readline()
                if not line:
                    raise BenchError(f"events {job_id}: stream ended without an end frame")
                line = line.decode().rstrip("\n")
                if line.startswith("event: "):
                    event = line[7:]
                    if event == "end":
                        return
                elif iters is not None and line.startswith("data: ") and event in ("stage.start", "iter"):
                    f = json.loads(line[6:])
                    if event == "stage.start":
                        highres[f["stage"]] = f["highres"]
                    else:
                        iters.append((highres[f["stage"]], f["sec"]))
        finally:
            conn.close()


def run_job(srv, wl, clip, iterdiv, iters=None):
    """Submits one job and waits for its result; returns a record."""
    t0 = time.perf_counter()
    job_id = srv.submit(job_request(wl, clip, iterdiv))
    t1 = time.perf_counter()
    srv.follow(job_id, iters)
    status = srv.get_json(f"/jobs/{job_id}")
    t2 = time.perf_counter()
    return dict(id=job_id, clip=clip, latency=t2 - t0, submit=t1 - t0, status=status)


def start_and_warm(wl, clip):
    """Cold start: process launch, listener, kernel-model build, and one job
    with one iteration per stage, which builds every FFT plan the recipe uses."""
    t0 = time.perf_counter()
    srv = Server()
    try:
        rec = run_job(srv, wl, clip, 1000)
        if rec["status"].get("state") != "done":
            raise BenchError(f"warm-up job ended {rec['status'].get('state')}: "
                             f"{rec['status'].get('error')}")
    except BaseException:
        srv.stop()
        raise
    return srv, time.perf_counter() - t0


# --- measurement ---------------------------------------------------------


def measure(srv, wl, clips, seconds, trace):
    """Closed loop: one client submits its next job when the last returns,
    until the window closes. Every job takes the next unused clip."""
    records, iters, errors = [], [] if trace else None, []
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + seconds:
        try:
            records.append(run_job(srv, wl, clips[len(records) % len(clips)], wl["iterdiv"], iters))
        except Exception as e:  # counted as a failed job
            errors.append(f"job {len(records)}: {e}")
            records.append(None)
            break
    return records, iters or [], errors, time.perf_counter() - t0


def check(srv, wl, records):
    """Returns the correctness problems found (none when all is well)."""
    problems = []
    budget = [-(-it // wl["iterdiv"]) for it in RECIPE_ITERS[wl["recipe"]]]
    done = []
    for rec in records:
        if rec is None:
            continue
        st = rec["status"]
        res = st.get("result") or {}
        name = f"{rec['id']} (clip {rec['clip']['index']})"
        if st.get("state") != "done":
            problems.append(f"{name}: state {st.get('state')} {st.get('error', '')}")
            continue
        l2, pvb = res.get("l2_nm2"), res.get("pvb_nm2")
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in (l2, pvb)):
            problems.append(f"{name}: bad contest metrics L2 {l2} PVB {pvb}")
            continue
        if not math.isfinite(res.get("final_loss", math.nan)):
            problems.append(f"{name}: non-finite final loss")
        its = res.get("iterations", 0)
        if its != sum(budget):
            problems.append(f"{name}: {its} iterations, want {sum(budget)}")
        if l2 >= rec["clip"]["area_nm2"]:
            problems.append(f"{name}: L2 {l2:.0f} nm² not below the target area")
        problems.extend(check_mask(srv, wl, rec))
        done.append(rec)
    for rec in done[:RECHECK_CLIPS]:
        again = run_job(srv, wl, rec["clip"], wl["iterdiv"])
        sha = (again["status"].get("result") or {}).get("mask_sha256")
        if sha != rec["status"]["result"]["mask_sha256"]:
            problems.append(f"{again['id']}: mask differs from {rec['id']} on the same clip")
    return problems


def check_mask(srv, wl, rec):
    """Fetches the final mask as layout text and checks, independently of the
    server's own metrics, that it covers most of the target and stays near
    it. An optimized mask need not cover the whole target: where neighbours
    print each other's light it is pulled inside the target's edges, and on
    the fast recipe some clips keep only 0.78 of it."""
    status, data = srv.request("GET", f"/jobs/{rec['id']}/mask")
    if status != 200:
        return [f"{rec['id']}: mask download status {status}"]
    n = wl["n"]
    mask = bytearray(n * n)
    for line in data.decode().splitlines():
        f = line.split()
        if f and f[0] == "RECT":
            x0, y0, x1, y1 = (min(max(int(v), 0), n) for v in f[1:5])
            for y in range(y0, y1):
                mask[y * n + x0:y * n + x1] = b"\x01" * (x1 - x0)
    covered = target = 0
    for x0, y0, x1, y1 in rec["clip"]["rects"]:
        for y in range(y0, y1):
            covered += sum(mask[y * n + x0:y * n + x1])
        target += (x1 - x0) * (y1 - y0)
    total = sum(mask)
    problems = []
    if covered < 0.6 * target:
        problems.append(f"{rec['id']}: mask covers {covered} of {target} target pixels")
    if total > 4 * target:
        problems.append(f"{rec['id']}: mask area {total} px exceeds 4x the target's {target}")
    return problems


# --- metrics -------------------------------------------------------------


def snapshot(srv):
    m = srv.get_json("/metrics")
    return dict(
        phases={p["name"]: p["sec"] for p in m.get("phases") or []},
        counters=m.get("counters") or {},
        hists={h["name"]: (h["count"], h["sum"]) for h in m.get("histograms") or []},
        heap=m["runtime"]["heap_inuse_bytes"],
    )


def end_to_end(done, wall, setups):
    lat = [r["latency"] * 1e3 for r in done]
    result = [r["status"]["result"] for r in done]
    area = [r["clip"]["area_nm2"] for r in done]
    return {
        "job_p50_ms": (statistics.median(lat), "ms"),
        "ilt_p50_ms": (statistics.median(r["ilt_sec"] * 1e3 for r in result), "ms"),
        "jobs_per_s": (len(done) / wall, "1/s"),
        "l2_pct": (100 * statistics.median(r["l2_nm2"] / a for r, a in zip(result, area)), "%"),
        "pvb_pct": (100 * statistics.median(r["pvb_nm2"] / a for r, a in zip(result, area)), "%"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(done, before, after, iters):
    jobs = len(done)

    def phase(name):
        return (after["phases"].get(name, 0) - before["phases"].get(name, 0)) / jobs * 1e3

    def count(name):
        return (after["counters"].get(name, 0) - before["counters"].get(name, 0)) / jobs

    def hist_mean(name):
        c0, s0 = before["hists"].get(name, (0, 0))
        c1, s1 = after["hists"].get(name, (0, 0))
        return (s1 - s0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    lat = mean([r["latency"] for r in done]) * 1e3
    ilt = mean([r["status"]["result"]["ilt_sec"] for r in done]) * 1e3
    queue = hist_mean("server.queue_wait")
    run = hist_mean("server.run")
    litho = {p: phase(p) for p in LITHO_PHASES}
    return {
        "latency_ms": (lat, "ms"),
        "submit_ms": (mean([r["submit"] for r in done]) * 1e3, "ms"),
        "queue_wait_ms": (queue, "ms"),
        "run_ms": (run, "ms"),
        "client_other_ms": (lat - queue - run, "ms"),
        "ilt_ms": (ilt, "ms"),
        "post_ilt_ms": (run - ilt, "ms"),
        "fft_forward_ms": (litho["litho.fft_forward"], "ms"),
        "socs_ms": (litho["litho.socs"], "ms"),
        "fft_inverse_ms": (litho["litho.fft_inverse"], "ms"),
        "adjoint_ms": (litho["litho.adjoint"], "ms"),
        "unspanned_ms": (run - sum(litho.values()), "ms"),
        "iter_lowres_ms": (mean([s for hi, s in iters if not hi]) * 1e3, "ms"),
        "iter_highres_ms": (mean([s for hi, s in iters if hi]) * 1e3, "ms"),
        "iterations": (mean([r["status"]["result"]["iterations"] for r in done]), "count"),
        "kernel_ffts": (count("litho.kernel_ffts"), "count"),
        "forward_sims": (count("litho.forward_sims"), "count"),
        "adjoint_calls": (count("litho.adjoint_calls"), "count"),
        "heap_inuse_mb": (after["heap"] / 2**20, "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    build()
    # A fresh clip for every job at up to five jobs a second; warm-up jobs
    # use the last ones.
    clips = [make_clip(wl, args.seed, i) for i in range(int(args.seconds * 5) + 8)]

    setups, srv = [], None
    try:
        for i in range(SETUP_REPS):
            srv, secs = start_and_warm(wl, clips[-1 - i])
            setups.append(secs)
            if i < SETUP_REPS - 1:
                srv.stop()
                srv = None
        before = snapshot(srv)
        records, iters, errors, wall = measure(srv, wl, clips, args.seconds, args.trace)
        after = snapshot(srv)
        problems = errors + check(srv, wl, records)
    finally:
        if srv is not None:
            srv.stop()

    for p in problems:
        print("iltbench:", p, file=sys.stderr)
    done = [r for r in records if r is not None and r["status"].get("state") == "done"]
    if not done:
        raise BenchError("no job completed")
    if args.trace:
        metrics = per_layer(done, before, after, iters)
    else:
        metrics = end_to_end(done, wall, setups)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print("iltbench:", e, file=sys.stderr)
        sys.exit(1)
