#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the xqgroup engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold-file --seed 1 --seconds 15 --trace 0

Workloads (perfbench/README.md says why each exists and which layers it
should and should not move):

  cold-file       one client; each operation is one `xq run` of a query over
                  a 16k-lineitem orders file
  warm-server     an `xq-server serve` daemon with orders, sales and
                  bibliography documents resident; two client connections
  spill-highcard  one client; `xq run --spill-at 16` over a 32k-lineitem
                  file, high-cardinality grouping keys

The script builds the engine and the measuring program (perfbench/xqbench.ml)
with dune, generates the documents from --seed with `xq gen`, computes
reference outputs in a separate process, runs the measurement, and prints a
readable report followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run's spans are kept
in perfbench/_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    # name: [(document name, `xq gen` workload, size), ...]
    "cold-file": [("orders", "orders", 16000)],
    "warm-server": [
        ("orders", "orders", 16000),
        ("sales", "sales", 1000),
        ("bib", "bibliography", 2000),
    ],
    "spill-highcard": [("orders", "orders", 32000)],
}

BUILD_TARGETS = ["perfbench/xqbench.exe", "bin/xq_cli.exe", "bin/xq_server_main.exe"]
XQ = "_build/default/bin/xq_cli.exe"
XQ_SERVER = "_build/default/bin/xq_server_main.exe"
XQBENCH = "_build/default/perfbench/xqbench.exe"
SETUPS = 3
MB = 1024.0 * 1024.0

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "queries/s"),
    ("throughput_mb_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("xml.parse_ms", "ms"), ("xml.parse_mb_s", "MB/s"),
    ("xml.scan_ms", "ms"), ("xml.scan_mb_s", "MB/s"),
    ("xml.serialize_ms", "ms"), ("xml.serialize_bytes", "bytes"),
    ("lang.compile_ms", "ms"), ("rewrite.stream_share", "ratio"),
    ("exec.eval_ms", "ms"), ("exec.stream_eval_ms", "ms"), ("exec.items_out", "count"),
    ("engine.key_walks", "count"), ("engine.dict_entries", "count"),
    ("engine.dict_interns", "count"),
    ("governor.peak_mem_mb", "MB"),
    ("spill.bytes", "bytes"), ("spill.files", "count"), ("spill.repartitions", "count"),
    ("server.handle_ms", "ms"), ("server.wait_ms", "ms"),
    ("server.plan_hit_ratio", "ratio"), ("server.doc_hit_ratio", "ratio"),
    ("server.admission_rejects", "count"), ("server.errors", "count"),
    ("server.dict_entries", "count"), ("client.retries", "count"),
    ("trace.uncovered_share", "ratio"), ("trace.overhead_share", "ratio"),
]


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, **kw):
    """Run one step in its own process group; stop the whole group after."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        die("step failed (%s): %s"
            % ("timeout" if rc is None else "exit %d" % rc, " ".join(cmd)))


def timed_process(cmd, out_path, env):
    """Run cmd with stdout to out_path; return (wall ns, exit code, max RSS KB)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        ns = time.perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(out_path + ".err", "rb") as f:
            sys.stderr.write(f.read().decode(errors="replace"))
    return ns, proc.returncode, usage.ru_maxrss


def stop_leftover_daemons(work):
    """Stop any daemon the measuring process could not stop itself."""
    for name in os.listdir(work):
        if not name.endswith(".pid"):
            continue
        with open(os.path.join(work, name)) as f:
            pid = int(f.read().strip())
        try:
            with open("/proc/%d/cmdline" % pid, "rb") as f:
                if b"xq_server_main" not in f.read():
                    continue
            os.kill(pid, signal.SIGKILL)
        except (FileNotFoundError, ProcessLookupError):
            continue
        # gone, or a zombie no parent of ours will reap
        while True:
            try:
                with open("/proc/%d/stat" % pid) as f:
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except FileNotFoundError:
                break
            time.sleep(0.01)


def read_plan(work):
    """The workload's `xq run` flags and schedule, as `xqbench ref` wrote them."""
    flags, schedule = [], []
    with open(os.path.join(work, "ref.txt")) as f:
        for line in f:
            kind, *rest = line.split()
            if kind == "flag":
                flags += rest
            else:
                qid, doc, md5, qfile = rest
                schedule.append({"id": qid, "doc": doc, "md5": md5, "qfile": qfile})
    return flags, schedule


def replay(schedule, seconds, op):
    """Closed loop over the schedule in whole cycles until `seconds` passed."""
    samples = []
    t0 = time.perf_counter_ns()
    deadline = t0 + int(seconds * 1e9)
    i = 0
    while not (i > 0 and i % len(schedule) == 0 and time.perf_counter_ns() >= deadline):
        samples.append(op(i, schedule[i % len(schedule)]))
        i += 1
    return {"wall_ns": time.perf_counter_ns() - t0, "ops": samples}


def file_workload(args, work, env):
    """One process per operation, timed here; setup and probes likewise."""
    flags, schedule = read_plan(work)
    out = os.path.join(work, "out")
    setup_ns = []
    for _ in range(SETUPS):
        ns, rc, _ = timed_process([XQBENCH, "setup", args.workload, work], out, env)
        if rc != 0:
            die("set-up failed")
        setup_ns.append(ns)

    def xq_run(i, q):
        ns, rc, rss = timed_process([XQ, "run", q["qfile"], "-i", q["doc"]] + flags,
                                    out, env)
        with open(out, "rb") as f:
            body = f.read()
        # `xq run` prints the result with a trailing newline
        ok = rc == 0 and hashlib.md5(body[:-1]).hexdigest() == q["md5"]
        return {"query": q["id"], "ns": ns, "ok": ok, "rss_kb": rss,
                "in_bytes": os.path.getsize(q["doc"])}

    def traced_op(i, q):
        ns, rc, rss = timed_process(
            [XQBENCH, "op", args.workload, work, q["id"], str(i + 1)], out, env)
        sample = {"query": q["id"], "ns": ns, "ok": False, "rss_kb": rss,
                  "in_bytes": os.path.getsize(q["doc"]), "out_bytes": 0, "items": 0,
                  "counters": {}}
        if rc == 0:
            with open(out) as f:
                sample.update(json.load(f))
            sample["ok"] = sample.pop("md5") == q["md5"]
        return sample

    res = {"setup_ns": setup_ns}
    if not args.trace:
        res["untraced"] = replay(schedule, args.seconds, xq_run)
    else:
        res["untraced"] = replay(schedule, args.seconds / 2, xq_run)
        res["traced"] = replay(schedule, args.seconds / 2, traced_op)
        run_checked([XQBENCH, "probe", args.workload, work], timeout=60, env=env)
        with open(os.path.join(work, "probe.json")) as f:
            res.update(json.load(f))
    res["peak_rss_kb"] = max(o["rss_kb"] for o in res["untraced"]["ops"])
    return res


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def end_to_end(res):
    phase = res["untraced"]
    wall_s = phase["wall_ns"] / 1e9
    lat = [o["ns"] / 1e6 for o in phase["ops"]]
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p95_ms": statistics.quantiles(lat, n=20, method="inclusive")[18],
        "throughput_qps": len(lat) / wall_s,
        "throughput_mb_s": sum(o["in_bytes"] for o in phase["ops"]) / MB / wall_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(res["setup_ns"]) / 1e9,
    }


def span_self_times(spans):
    """Self time per span name: duration minus the children's durations."""
    dur = lambda s: s["end_ns"] - s["start_ns"]
    child_ns = {}
    for s in spans:
        if s["parent"]:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + dur(s)
    self_ns = {}
    for s in spans:
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + dur(s) - child_ns.get(s["id"], 0)
    return self_ns


def per_layer(res, workload, spans):
    traced = res["traced"]["ops"]
    # on warm-server the layer calls are made in process, below Server_core.handle
    layer_ops = res["layers"] if workload == "warm-server" else traced
    self_ns = span_self_times(spans)
    span_ms = {}
    for s in spans:
        span_ms[s["name"]] = span_ms.get(s["name"], 0) + (s["end_ns"] - s["start_ns"]) / 1e6
    per_op_ms = lambda name: span_ms.get(name, 0.0) / len(layer_ops)
    counter = lambda key: mean(o["counters"].get(key, 0) for o in layer_ops)
    # the layer spans are the children of the "op" roots; what they leave of
    # the operation's wall time is uncovered (on warm-server, of the time
    # Server_core.handle takes for the same requests)
    covered_ns = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"])
    wall_ns = sum(o["ns"] for o in (res["handle"] if workload == "warm-server" else traced))

    parse, scan = res["parse"], res["scan"]
    parse_ns = sum(p["ns"] for p in parse)
    scan_ns = sum(p["ns"] for p in scan)
    values = {
        "xml.parse_ms": parse_ns / 1e6,
        "xml.parse_mb_s": sum(p["bytes"] for p in parse) / MB / (parse_ns / 1e9),
        "xml.scan_ms": scan_ns / 1e6 / max(1, len(scan)),
        "xml.scan_mb_s": (sum(p["bytes"] for p in scan) / MB / (scan_ns / 1e9)
                          if scan_ns else 0.0),
        "xml.serialize_ms": per_op_ms("xml.serialize"),
        "xml.serialize_bytes": mean(o["out_bytes"] for o in layer_ops),
        "lang.compile_ms": per_op_ms("lang.compile"),
        "rewrite.stream_share": counter("streamed"),
        "exec.eval_ms": per_op_ms("exec.eval"),
        "exec.stream_eval_ms": per_op_ms("exec.stream_eval"),
        "exec.items_out": mean(o["items"] for o in layer_ops),
        "engine.key_walks": counter("key_walks"),
        "engine.dict_entries": counter("dict_entries"),
        "engine.dict_interns": counter("dict_interns"),
        "governor.peak_mem_mb": counter("peak_mem_bytes") / MB,
        "spill.bytes": counter("spill_bytes"),
        "spill.files": counter("spill_files"),
        "spill.repartitions": counter("repartitions"),
        "trace.uncovered_share": 1.0 - covered_ns / wall_ns,
        "trace.overhead_share": (statistics.median(o["ns"] for o in traced)
                                 / statistics.median(o["ns"] for o in res["untraced"]["ops"])
                                 - 1.0),
    }
    server = dict.fromkeys(
        ["server.handle_ms", "server.wait_ms", "server.plan_hit_ratio",
         "server.doc_hit_ratio", "server.admission_rejects", "server.errors",
         "server.dict_entries", "client.retries"], 0)
    if workload == "warm-server":
        stats = res["traced"]["stats_delta"]
        ratio = lambda h, m: stats[h] / max(1, stats[h] + stats[m])
        handle_ms = mean(o["ns"] / 1e6 for o in res["handle"])
        server = {
            "server.handle_ms": handle_ms,
            "server.wait_ms": mean(o["ns"] / 1e6 for o in traced) - handle_ms,
            "server.plan_hit_ratio": ratio("plan_hits", "plan_misses"),
            "server.doc_hit_ratio": ratio("doc_hits", "doc_misses"),
            "server.admission_rejects": stats["admission_rejects"],
            "server.errors": sum(v for k, v in stats.items() if k.startswith("err_")),
            "server.dict_entries": stats["dict_entries"],
            "client.retries": res["traced"]["retries"],
        }
    values.update(server)
    return values, self_ns


def report(args, res, work):
    ops = list(res["untraced"]["ops"])
    if args.trace:
        ops += res["traced"]["ops"] + res.get("handle", []) + res.get("layers", [])
    attempted = len(ops)
    failed = sum(1 for o in ops if not o["ok"])
    print("workload %s  seed %d  %d operations (%d failed)"
          % (args.workload, args.seed, attempted, failed))
    if args.trace:
        spans_path = os.path.join(work, "spans.jsonl")
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        out_dir = os.path.join("perfbench", "_out")
        os.makedirs(out_dir, exist_ok=True)
        shutil.copy(spans_path, os.path.join(
            out_dir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed)))
        values, self_ns = per_layer(res, args.workload, spans)
        for name in sorted(self_ns):
            print("  self time %-20s %12.1f ms" % (name, self_ns[name] / 1e6))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}
    else:
        values = end_to_end(res)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    for k, m in metrics.items():
        print("  %-26s %14.4f %s" % (k, m["value"], m["unit"]))
    print("  %-26s %14.4f %s" % ("error_rate", failed / attempted, "ratio"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for f in ["dune-project", "lib/pipeline/pipeline.mli", "bin/xq_server_main.ml"]:
        if not os.path.exists(f):
            die("run from the root of the xqgroup repository (missing %s)" % f, 2)

    # the shared dune cache lives outside the repository; keep builds inside
    run_checked(["dune", "build", "--root", ".", "--display", "quiet"] + BUILD_TARGETS,
                timeout=850, env=dict(os.environ, DUNE_CACHE="disabled"))

    work = os.path.join("perfbench", "_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    # spill files and other temporaries stay inside the work directory
    env = dict(os.environ, TMPDIR=os.path.abspath(work))
    try:
        for k, (name, kind, size) in enumerate(WORKLOADS[args.workload]):
            with open(os.path.join(work, name + ".xml"), "w") as out:
                run_checked([XQ, "gen", kind, "--size", str(size),
                             "--seed", str(args.seed * 16 + k)], timeout=60, stdout=out)
        run_checked([XQBENCH, "ref", args.workload, work], timeout=60, env=env)
        if args.workload == "warm-server":
            run_checked([XQBENCH, "server", args.workload, work, str(args.seed),
                         str(args.seconds), str(args.trace), str(SETUPS), XQ_SERVER],
                        timeout=150, env=env)
            with open(os.path.join(work, "result.json")) as f:
                res = json.load(f)
        else:
            res = file_workload(args, work, env)
        report(args, res, work)
    finally:
        stop_leftover_daemons(work)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
