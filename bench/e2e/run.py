#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py agree A.json... [-- B.json...]
    python3 bench/e2e/run.py selftest

The benchmark is an OCaml executable (bench/e2e/src) linked against the
repository's libraries.  It is built in a workspace of its own under
.bench_build/e2e/ -- a copy of dune-project, lib/, bin/ and the benchmark
sources -- so the repository's own `dune build` never compiles it.  The
last line of a run's standard output is the result as one JSON object.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
WORK = os.path.join(".bench_build", "e2e")
WS = os.path.join(WORK, "ws")
# (source in the checkout, destination in the workspace)
TREES = [("lib", "lib"), ("bin", "bin"), (os.path.join(HERE, "src"), "e2e")]
E2E = os.path.join(WS, "_build", "default", "e2e", "e2e.exe")
PAREDOWN = os.path.join(WS, "_build", "default", "bin", "paredown.exe")
WORKLOADS = ["synth-table1", "search-random", "serve-mixed", "reliability-sweep"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Mirror src into dst, touching only files whose content changed,
    so dune rebuilds only what changed."""
    wanted = set()
    for dirpath, _, files in os.walk(src):
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for f in files:
            s = os.path.join(dirpath, f)
            d = os.path.normpath(os.path.join(dst, rel, f))
            wanted.add(d)
            if not (os.path.exists(d) and filecmp.cmp(s, d, shallow=False)):
                shutil.copyfile(s, d)
    for dirpath, _, files in os.walk(dst):
        for f in files:
            d = os.path.normpath(os.path.join(dirpath, f))
            if d not in wanted:
                os.remove(d)


def build():
    for path in ["dune-project", "lib", "bin", os.path.join(HERE, "src")]:
        if not os.path.exists(path):
            fail("no %s here: run from the root of a checkout" % path)
    os.makedirs(WS, exist_ok=True)
    shutil.copyfile("dune-project", os.path.join(WS, "dune-project"))
    for src, dst in TREES:
        sync_tree(src, os.path.join(WS, dst))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", WS, "--profile", "release",
           "./e2e/e2e.exe", "./bin/paredown.exe"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, json_out=None, quiet=False):
    """One benchmark run; returns the result object of its last line."""
    if workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (workload, ", ".join(WORKLOADS)))
    workdir = os.path.join(WORK, "run-" + workload)
    os.makedirs(workdir, exist_ok=True)
    json_out = json_out or os.path.join(
        workdir, "result-%s-%d.json" % ("traced" if trace else "plain", seed))
    cmd = [E2E, "run", "--workload", workload, "--seed", str(seed),
           "--duration", str(seconds), "--paredown", PAREDOWN,
           "--workdir", workdir, "--json", json_out]
    if trace:
        cmd += ["--trace", os.path.join(workdir, "trace-%d.json" % seed)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not quiet:
        sys.stdout.write(p.stdout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("benchmark run failed (exit %d)" % p.returncode)
    return json.loads(lines[-1]), json_out


def selftest():
    """Each workload briefly, untraced and traced: the metric names are
    exactly those BENCHMARK.json lists, no op fails, the same seed gives
    the same input and output digests and another seed other inputs."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {k: sorted(m["name"] for m in spec[k]) for k in ("end_to_end", "per_layer")}
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        runs = []
        for seed, trace in [(1, False), (1, True), (2, False)]:
            result, path = run(w, seed, 0.5, trace, quiet=True)
            with open(path) as f:
                runs.append(json.load(f))
            kind = "per_layer" if trace else "end_to_end"
            if sorted(result["metrics"]) != names[kind]:
                problems.append("%s: %s metric names differ from BENCHMARK.json" % (w, kind))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s seed %d: %d of %d ops failed"
                                % (w, seed, result["failed"], result["attempted"]))
        a, b, c = runs
        for key in ("input_digest", "output_digest"):
            if a[key] != b[key]:
                problems.append("%s: same seed, different %s" % (w, key))
        if a["input_digest"] == c["input_digest"]:
            problems.append("%s: another seed, same input digest" % w)
        print("%-18s %s" % (w, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


def main(argv):
    if argv[:1] == ["agree"]:
        build()
        sys.exit(subprocess.run([E2E, "agree", "--benchmark", "BENCHMARK.json"]
                                + argv[1:]).returncode)
    if argv[:1] == ["selftest"]:
        build()
        selftest()
    opts = {"--workload": None, "--seed": "1", "--seconds": "30", "--trace": "0"}
    it = iter(argv)
    for a in it:
        if a not in opts:
            fail("unknown argument %r" % a)
        opts[a] = next(it, None)
    if opts["--workload"] is None:
        fail("--workload is required")
    build()
    run(opts["--workload"], int(opts["--seed"]), float(opts["--seconds"]),
        opts["--trace"] == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
