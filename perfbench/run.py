"""rlat's benchmark: one workload, timed through the library and the CLI.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's `src/rlat`. The run sets up (several times, reporting the median),
then repeats whole rounds, each the workload's job as library calls followed
by the same job as `python -m rlat.cli` commands, until --seconds have
passed. It checks the outputs of every round and prints, as its last line, a
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones (setup_s, lib_s, cli_s,
peak_rss_mb), as medians over rounds. Times are rescaled to a reference
speed by a short probe run before and after each operation (see README.md),
because the shared host's speed drifts by more than the bounds. With --trace 1 the run does one
untraced round, then one traced round whose commands run in this process,
and reports per-layer metrics from the spans (see README.md); the spans are
written to .perfbench_out/.
"""

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads as w
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
STARTUP_REPEATS = 5

PER_LAYER = {
    # metric name: (traced function, aggregate)
    "core.validate.calls": ("core.validate", "calls"),
    "core.validate.s": ("core.validate", "s"),
    "core.validate.fail_s": ("core.validate", "fail_s"),
    "core.find_isomorphism.s": ("core.find_isomorphism", "s"),
    "generate.build_an.self_s": ("generate.build_an", "self_s"),
    "gluing.glue.calls": ("gluing.glue", "calls"),
    "gluing.glue.self_s": ("gluing.glue", "self_s"),
    "gluing.validate_gluing.s": ("gluing.validate_gluing", "s"),
    "decompose.split.calls": ("decompose.split", "calls"),
    "decompose.split.self_s": ("decompose.split", "self_s"),
    "decompose.reassemble.self_s": ("decompose.reassemble", "self_s"),
    "congruence.congruence_lattice.self_s":
        ("congruence.congruence_lattice", "self_s"),
    "congruence.congruence_from_filter.calls":
        ("congruence.congruence_from_filter", "calls"),
    "congruence.congruence_from_filter.self_s":
        ("congruence.congruence_from_filter", "self_s"),
    "partition.partition.s": ("partition.partition", "s"),
    "props.is_distributive_semilattice.s":
        ("props.is_distributive_semilattice", "s"),
    "fileformat.parse.s": ("fileformat.parse", "s"),
    "fileformat.emit.s": ("fileformat.emit", "s"),
    "fileformat.write_tree.s": ("fileformat.write_tree", "s"),
    "fileformat.load_algebra.self_s": ("fileformat.load_algebra", "self_s"),
    "search.enumerate_up_to_iso.self_s":
        ("search.enumerate_up_to_iso", "self_s"),
    "cli.run.s": ("cli.run", "s"),
}


def import_fresh():
    """Import rlat and rlat.cli as a new process would."""
    for key in [k for k in sys.modules if k == "rlat" or k.startswith("rlat.")]:
        del sys.modules[key]
    importlib.import_module("rlat")
    importlib.import_module("rlat.cli")


def cli_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def set_up(workload, seed):
    """Fresh work directory, imports, seeded inputs and a warm-up of both
    paths. Returns the workload's state."""
    shutil.rmtree(workload.work, ignore_errors=True)
    os.makedirs(workload.work)
    import_fresh()
    state = workload.setup(random.Random("%s:%d" % (workload.name, seed)))
    R = sys.modules["rlat"]
    R.validate(R.boolean_algebra(1))
    subprocess.run([sys.executable, "-m", "rlat.cli", "gen", "bool", "1"],
                   capture_output=True, check=True, env=cli_env(),
                   cwd=workload.work, timeout=60)
    return state


def one_round(workload, state, inprocess=False):
    lib = w.LibPass()
    lib_out = workload.lib_pass(state, lib)
    out_dir = os.path.join(workload.work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cli = w.CliPass(cli_env(), workload.work, inprocess)
    results = cli.run(workload.commands(state, out_dir))
    cli_out = workload.collect(state, out_dir, results)
    return {"lib": lib, "cli": cli, "lib_out": lib_out, "cli_out": cli_out}


def startup_seconds():
    """Median time to start Python and import rlat.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rlat.cli"], check=True,
                       env=cli_env(), cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, seed, seconds, trace, out_dir=None):
    """One benchmark run; returns the result object."""
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        timer = w.Pass()
        state = timer.timed(lambda: set_up(workload, seed))
        setups.append(timer.seconds)

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round(workload, state))
        if trace or time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(one_round(workload, state, inprocess=True))
        finally:
            tracer.uninstall()
        startup = startup_seconds()

    first = rounds[0]
    errors = workload.check(state, first["lib_out"], first["cli_out"])
    for i, r in enumerate(rounds[1:], 1):
        if r["lib_out"] != first["lib_out"]:
            errors.append("round %d: library outputs differ from round 0" % i)
        if r["cli_out"] != first["cli_out"]:
            errors.append("round %d: command outputs differ from round 0" % i)
    for e in errors:
        print("check failed: " + e, file=sys.stderr)

    attempted = sum(r["lib"].attempted + r["cli"].attempted for r in rounds)
    failed = sum(r["lib"].failed + r["cli"].failed for r in rounds)
    if trace:
        totals = tracer.totals()
        metrics = {name: {"value": totals.get(fn, {}).get(agg, 0),
                          "unit": "count" if agg == "calls" else "s"}
                   for name, (fn, agg) in PER_LAYER.items()}
        metrics["cli.startup_s"] = {"value": startup, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": rounds[1]["lib"].seconds - rounds[0]["lib"].seconds,
            "unit": "s"}
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, "spans-%s-seed%d.json"
                                      % (workload.name, seed)))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "lib_s": {"value": statistics.median(r["lib"].seconds
                                                 for r in rounds),
                      "unit": "s"},
            "cli_s": {"value": statistics.median(r["cli"].seconds
                                                 for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("%s seed %d: %d rounds; library %s s, commands %s s at the "
          "reference speed; wall time %s s and %s s"
          % (workload.name, seed, len(rounds),
             [round(r["lib"].seconds, 3) for r in rounds],
             [round(r["cli"].seconds, 3) for r in rounds],
             [round(r["lib"].wall, 3) for r in rounds],
             [round(r["cli"].wall, 3) for r in rounds]), file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain", "boolean", "enum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rlat", "__init__.py")):
        print("error: no src/rlat under %s; run the benchmark from a checkout "
              "of the project" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # one core for this process and the commands it starts, so that the
    # speed probes measure the core the commands run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = os.path.join(ROOT, ".perfbench_work",
                        "%s-%d" % (args.workload, os.getpid()))
    workload = w.WORKLOADS[args.workload](ROOT, work, **w.FULL[args.workload])
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         out_dir=os.path.join(ROOT, ".perfbench_out"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
