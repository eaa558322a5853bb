"""The benchmark's own test: every workload at small sizes with every check,
the traced run's metric names, and each kind of check rejecting a wrong
output (a flipped table cell, a wrong count, a broken isomorphism map).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads as w  # noqa: E402


def small(name, tmp_path):
    return w.WORKLOADS[name](run.ROOT, str(tmp_path / name), **w.SMALL[name])


def declared(key):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("name, failed", [("chain", 1), ("boolean", 0),
                                          ("enum", 0)])
def test_untraced_run_passes_every_check(name, failed, tmp_path):
    result = run.measure(small(name, tmp_path), seed=5, seconds=0, trace=False)
    assert result["correct"]
    assert result["failed"] == failed
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path):
    result = run.measure(small("chain", tmp_path), seed=5, seconds=0,
                         trace=True)
    assert result["correct"]
    assert result["failed"] == 2            # the deep spec chain, each round
    metrics = result["metrics"]
    assert set(metrics) == declared("per_layer")
    for name in ("core.validate.calls", "gluing.glue.calls",
                 "decompose.split.calls", "fileformat.load_algebra.self_s",
                 "cli.run.s", "cli.startup_s"):
        assert metrics[name]["value"] > 0, name
    # the tracer put every binding back
    rlat = sys.modules["rlat"]
    assert sys.modules["rlat.gluing"].validate is rlat.validate
    assert not hasattr(rlat.validate, "__wrapped__")


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One checked round per workload, to tamper with."""
    tmp = tmp_path_factory.mktemp("rounds")
    out = {}
    for name in ("chain", "boolean", "enum"):
        workload = small(name, tmp)
        state = run.set_up(workload, seed=7)
        r = run.one_round(workload, state)
        assert workload.check(state, r["lib_out"], r["cli_out"]) == []
        out[name] = (workload, state, r)
    return out


def flip(a, table, x, y):
    t = [list(row) for row in getattr(a, table)]
    t[x][y] = (t[x][y] + 1) % len(a.names)
    return a._replace(**{table: t})


def swap_first_two(m):
    return [m[1], m[0]] + m[2:]


def tamper_chain_gen(out):
    out["lib_out"][1]["gen"] = flip(out["lib_out"][1]["gen"], "fusion", 1, 2)


def tamper_chain_leaf(out):
    leaves = out["lib_out"][2]["leaves"]
    leaves[0] = flip(leaves[0], "join", 0, 1)


def tamper_chain_congruence_count(out):
    out["lib_out"][2]["congruences"].pop()


def tamper_chain_cli_count(out):
    results = out["cli_out"]["results"]
    code, text = results[4]
    n = int(text.split()[1])
    results[4] = (code, text.replace("congruences %d" % n,
                                     "congruences %d" % (n + 1), 1))


def tamper_chain_iso(out):
    out["lib_out"][2]["iso"] = swap_first_two(out["lib_out"][2]["iso"])


def tamper_boolean_witness(out):
    rep = out["lib_out"]["mutants"][0]
    i = next(i for i, (_, ok, _) in enumerate(rep) if not ok)
    name, _, witness = rep[i]
    rep[i] = (name, False, tuple(reversed(witness)) + (0,))


def tamper_boolean_cli_exit(out):
    results = out["cli_out"]["results"]
    code, text = results[-1]
    results[-1] = (0, text)


def tamper_enum_count(out):
    out["lib_out"]["counts"][5] += 1


def tamper_enum_member(out):
    algebras = out["lib_out"]["algebras"]
    algebras[-1] = flip(algebras[-1], "join", 1, 2)


@pytest.mark.parametrize("name, tamper", [
    ("chain", tamper_chain_gen),
    ("chain", tamper_chain_leaf),
    ("chain", tamper_chain_congruence_count),
    ("chain", tamper_chain_cli_count),
    ("chain", tamper_chain_iso),
    ("boolean", tamper_boolean_witness),
    ("boolean", tamper_boolean_cli_exit),
    ("enum", tamper_enum_count),
    ("enum", tamper_enum_member),
])
def test_checks_reject_wrong_outputs(rounds, name, tamper):
    workload, state, r = rounds[name]
    bad = copy.deepcopy({"lib_out": r["lib_out"], "cli_out": r["cli_out"]})
    tamper(bad)
    assert workload.check(state, bad["lib_out"], bad["cli_out"])


def test_timer_leaves_out_its_probes_and_restores_sigalrm():
    import signal
    import time

    def busy():
        end = time.perf_counter() + 1.2      # long enough for in-op probes
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    timer = w.Pass()
    start = time.perf_counter()
    assert timer.timed(busy) == "done"
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # probes fell inside the operation and are left out of its wall time
    assert 1.0 < timer.wall < 1.2 < elapsed
    assert timer.seconds > 0
