"""The benchmark's workloads: `chain`, `boolean` and `enum`.

Each workload makes its inputs from a seeded random generator (`setup`), does
its job once as library calls (`lib_pass`) and once as rlat commands
(`commands`, run by `CliPass`), and checks every output against the plain
code in reference.py or against what the paper proves (`check`). Library
calls go through `sys.modules["rlat"]` at call time, so a tracer installed
there sees them, and each timed call gets a freshly built algebra: the
library caches order masks on the object, and reusing one would hide a cost
users pay.
"""

import contextlib
import io
import os
import signal
import subprocess
import sys
import time
import traceback

from reference import (AXIOMS, Alg, axiom_scan, emit_text, is_boolean,
                       is_boolean_block, is_congruence, is_isomorphism,
                       is_restriction, isomorphic, laws_hold, negative_cone,
                       parse_text, positive_cone, relabel, report_lines,
                       tables)

FAILED = "FAILED"   # stands for the result of an operation that failed

# The malformed gspec chain: g0 -> g1 -> ... -> g1199 -> a missing file.
DEEP_SPEC = 1200

# Members of each size 1..7 up to isomorphism. The project README gives them
# from the brute-force enumerator; a separate enumeration by gluing, which
# shares no code with it, found the same numbers (ROADMAP, item 4).
ENUM_COUNTS = (1, 1, 1, 2, 2, 4, 4)

FULL = {
    "chain": {"ks": (4, 8, 12)},
    "boolean": {"ks": (4, 5, 6), "an_k": 3, "per_source": 4},
    "enum": {"max_size": 7},
}
SMALL = {
    "chain": {"ks": (1, 2)},
    "boolean": {"ks": (2, 3), "an_k": 1, "per_source": 2},
    "enum": {"max_size": 5},
}


def rlat():
    return sys.modules["rlat"]


def fresh(a):
    """A new library algebra, with no cached masks, from plain tables."""
    if a is FAILED:
        return FAILED
    return rlat().FiniteInRL(a.names, a.one, a.neg, a.join, a.fusion)


def plain(value, convert):
    return FAILED if value is FAILED else convert(value)


# The speed probe: a fixed piece of pure-Python work, and the CPU time it
# takes at the reference speed. On a 2-CPU 2.0 GHz Xeon guest it took
# 5.7-6 ms while the host was quiet and up to 11 ms while other tenants
# loaded it.
PROBE_REF_S = 0.006
PROBE_EVERY_S = 0.5
_PROBE_ALG = Alg([str(i) for i in range(16)], 15, [15 - i for i in range(16)],
                 [[x | y for y in range(16)] for x in range(16)],
                 [[x & y for y in range(16)] for x in range(16)])


def probe():
    """CPU seconds the probe takes now. CPU time, so that a probe taken
    while a command's process shares the core still measures the core."""
    start = time.process_time()
    for _ in range(5):
        laws_hold(_PROBE_ALG)
    return time.process_time() - start


class Pass:
    """Operations timed one at a time and rescaled to the reference speed.

    A probe runs before the first operation, after each one, and every
    PROBE_EVERY_S seconds during one (on SIGALRM). An operation's time is
    cut at its probes; each piece of wall time is multiplied by PROBE_REF_S
    over the mean of the probes at its ends. The probes' own time is left
    out of both `wall` and `seconds`. The run is pinned to one core (see
    run.py), so the probes measure the core the commands' processes use."""

    def __init__(self):
        self.seconds = 0.0
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self._last = None

    def timed(self, op):
        """Run op() and add its time; returns what op returns."""
        if self._last is None:
            self._last = probe()
        marks = []    # probes during the operation: (start, end, CPU s)

        def on_alarm(signum, frame):
            begin = time.perf_counter()
            took = probe()
            marks.append((begin, time.perf_counter(), took))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            return op()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            after = probe()
            points = ([(start, start, self._last)]
                      + [m for m in marks if m[1] <= end] + [(end, end, after)])
            for (_, begin, p), (finish, _, q) in zip(points, points[1:]):
                self.wall += finish - begin
                self.seconds += (finish - begin) * 2 * PROBE_REF_S / (p + q)
            self._last = after


class LibPass(Pass):
    """Library calls; a call that raises, or that gets the result of a
    failed call, counts as failed."""

    def call(self, fn, *args):
        self.attempted += 1
        if any(a is FAILED for a in args):
            self.failed += 1
            return FAILED
        try:
            return self.timed(lambda: fn(*args))
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return FAILED


class CliPass(Pass):
    """rlat commands run one after another, as `python -m rlat.cli`
    subprocesses or, for the traced run, in this process. A command fails
    when it ends in an uncaught exception or does not end in time."""

    def __init__(self, env, cwd, inprocess=False):
        super().__init__()
        self.env = env
        self.cwd = cwd
        self.inprocess = inprocess

    def run(self, commands):
        """(exit code, stdout) per command, FAILED for failed ones."""
        results = []
        for argv in commands:
            self.attempted += 1
            out = self.timed(lambda: self._in_process(argv) if self.inprocess
                              else self._spawn(argv))
            if out is FAILED:
                self.failed += 1
            results.append(out)
        return results

    def _spawn(self, argv):
        try:
            proc = subprocess.run([sys.executable, "-m", "rlat.cli", *argv],
                                  capture_output=True, text=True,
                                  env=self.env, cwd=self.cwd, timeout=150)
        except subprocess.TimeoutExpired:
            return FAILED
        if "Traceback (most recent call last)" in proc.stderr:
            return FAILED
        return (proc.returncode, proc.stdout)

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sys.modules["rlat.cli"].run(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                return FAILED
        return (code, out.getvalue())


class Checks:
    """Collects the descriptions of failed checks."""

    def __init__(self):
        self.errors = []

    def expect(self, ok, what):
        if not ok:
            self.errors.append(what)
        return ok


def read_dir(path):
    """name -> text of every file in path, or {} if it does not exist."""
    if not os.path.isdir(path):
        return {}
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def shuffled(a, rng):
    perm = list(range(len(a.names)))
    rng.shuffle(perm)
    return relabel(a, perm), perm


def check_blocks(c, a, blocks, where):
    """blocks (lists of ids) are Boolean and partition a, one per element
    of the positive cone."""
    flat = sorted(x for b in blocks for x in b)
    c.expect(flat == list(range(len(a.names))),
             "%s: blocks do not partition the carrier" % where)
    c.expect(len(blocks) == len(positive_cone(a)),
             "%s: %d blocks, positive cone has %d elements"
             % (where, len(blocks), len(positive_cone(a))))
    c.expect(all(is_boolean_block(a, b) for b in blocks),
             "%s: a block is not a Boolean algebra" % where)


def cli_blocks(a, stdout):
    """The element sets of `rlat partition` block lines, as ids."""
    index = {name: i for i, name in enumerate(a.names)}
    return [[index[t] for t in line.split("elements=", 1)[1].split()]
            for line in stdout.splitlines() if line.startswith("block ")]


def check_congruences(c, a, relations, sample, where):
    """As many congruences as negative-cone elements (the paper's
    anti-isomorphism); the sampled ones are congruences."""
    cone = len(negative_cone(a))
    c.expect(len(relations) == cone, "%s: %d congruences, negative cone has %d"
             % (where, len(relations), cone))
    for i in sample:
        if i < len(relations):
            c.expect(is_congruence(a, relations[i]),
                     "%s: relation %d is not a congruence" % (where, i))


def check_cli_congruences(c, a, result, where):
    code, stdout = result
    lines = stdout.splitlines()
    cone = len(negative_cone(a))
    c.expect(code == 0 and lines[:1] == ["congruences %d" % cone]
             and len(lines) == cone + 1,
             "%s: `rlat congruences` does not list %d congruences"
             % (where, cone))


def check_pass_lines(c, stdout, where):
    c.expect(stdout.splitlines() == ["%s: pass" % name for name in AXIOMS],
             "%s: `rlat check` does not pass every axiom" % where)


class Workload:
    """root: the checkout; work: an empty directory for inputs; sizes: the
    workload's entry in FULL or SMALL."""

    def __init__(self, root, work, **sizes):
        self.root = root
        self.work = work
        self.__dict__.update(sizes)

    def collect(self, state, out_dir, results):
        """The command results plus whatever the commands wrote."""
        return {"results": results}


class Chain(Workload):
    """The one-generated family build_an(k), n = 4k+6: many four-element
    blocks and a decomposition tree of depth k+1."""

    name = "chain"

    def setup(self, rng):
        R = rlat()
        state = {}
        for k in self.ks:
            inp, perm = shuffled(tables(R.build_an(k)), rng)
            path = os.path.join(self.work, "an%d.rlat" % k)
            write(path, emit_text(inp))
            sample = rng.sample(range(len(negative_cone(inp))), 3)
            state[k] = {"input": inp, "perm": perm, "path": path,
                        "sample": sample}
        deep = os.path.join(self.work, "deep")
        os.makedirs(deep)
        write(os.path.join(deep, "u.rlat"),
              "elements 1\none 1\nneg 1\njoin 1\nfusion 1\n")
        for i in range(DEEP_SPEC):
            lower = "g%d.gspec" % (i + 1) if i + 1 < DEEP_SPEC else "missing.rlat"
            write(os.path.join(deep, "g%d.gspec" % i),
                  "lower %s\nupper u.rlat\na 1\nb 1\nphi 1 -> 1\n" % lower)
        state["deep"] = os.path.join(deep, "g0.gspec")
        return state

    def lib_pass(self, state, lp):
        R = rlat()
        out = {}
        for k in self.ks:
            inp = state[k]["input"]
            gen = lp.call(R.build_an, k)
            rep = lp.call(R.validate, fresh(inp))
            part = lp.call(R.partition, fresh(inp))
            distr = lp.call(R.is_distributive_semilattice, fresh(inp))
            con = lp.call(R.congruence_lattice, fresh(inp))
            tree = lp.call(R.decompose, fresh(inp))
            back = plain(lp.call(R.reassemble, tree), tables)
            iso = lp.call(R.find_isomorphism, fresh(back), fresh(inp))
            out[k] = {
                "gen": plain(gen, tables),
                "report": plain(rep, lambda r: r.checks),
                "blocks": plain(part, lambda p: [b.elements for b in p.blocks]),
                "distr": plain(distr, lambda v: v.holds),
                "congruences": plain(con, lambda cl: [t.relation for t in
                                                      cl.congruences]),
                "leaves": plain(tree, lambda t: [tables(leaf.algebra)
                                                 for leaf in t.leaves()]),
                "back": back,
                "iso": plain(iso, lambda m: None if m is None else list(m)),
            }
        return out

    def commands(self, state, out_dir):
        cmds = []
        for k in self.ks:
            f = state[k]["path"]
            tree = os.path.join(out_dir, "tree%d" % k)
            cmds += [["gen", "an", str(k)], ["check", f], ["partition", f],
                     ["prop", "distr-semilattice", f], ["congruences", f],
                     ["decompose", f, "--out", tree], ["reassemble", tree]]
        cmds.append(["glue", state["deep"]])
        return cmds

    def collect(self, state, out_dir, results):
        return {"results": results,
                "trees": {k: read_dir(os.path.join(out_dir, "tree%d" % k))
                          for k in self.ks}}

    def check(self, state, lib, cli):
        c = Checks()
        results = cli["results"]
        for i, k in enumerate(self.ks):
            s = state[k]
            inp, n = s["input"], 4 * k + 6
            where = "an(%d)" % k
            out = lib[k]
            if out["gen"] is not FAILED:
                gen = out["gen"]
                c.expect(len(gen.names) == n, "%s: size is not %d" % (where, n))
                c.expect(laws_hold(gen), "%s: generated tables break a law"
                         % where)
                c.expect(is_isomorphism(gen, inp, s["perm"]),
                         "%s: input is not the relabelled generator" % where)
            if out["report"] is not FAILED:
                c.expect([(name, ok) for name, ok, _ in out["report"]]
                         == [(name, True) for name in AXIOMS],
                         "%s: validate rejects a member" % where)
            if out["blocks"] is not FAILED:
                check_blocks(c, inp, out["blocks"], where)
            if out["distr"] is not FAILED:
                c.expect(out["distr"] is True, "%s: fusion semilattice is not "
                         "distributive" % where)
            if out["congruences"] is not FAILED:
                check_congruences(c, inp, out["congruences"], s["sample"],
                                  where)
            if out["leaves"] is not FAILED:
                self._check_leaves(c, out["leaves"], n, where)
            if out["iso"] is not FAILED:
                c.expect(is_isomorphism(out["back"], inp, out["iso"]),
                         "%s: reassembled algebra is not mapped isomorphically "
                         "onto the input" % where)

            gen, chk, part, prop, con, dec, back = results[7 * i: 7 * i + 7]
            where = "rlat on an(%d)" % k
            if gen is not FAILED and out["gen"] is not FAILED:
                c.expect(gen == (0, emit_text(out["gen"])),
                         "%s: `rlat gen` differs from build_an" % where)
            if chk is not FAILED:
                c.expect(chk[0] == 0, "%s: check exits %s" % (where, chk[0]))
                check_pass_lines(c, chk[1], where)
            if part is not FAILED:
                c.expect(part[0] == 0, "%s: partition exits %s"
                         % (where, part[0]))
                check_blocks(c, inp, cli_blocks(inp, part[1]), where)
            if prop is not FAILED:
                c.expect(prop == (0, "holds\n"), "%s: distr-semilattice does "
                         "not hold" % where)
            if con is not FAILED:
                check_cli_congruences(c, inp, con, where)
            if dec is not FAILED:
                c.expect(dec[0] == 0, "%s: decompose exits %s" % (where, dec[0]))
                leaves = [parse_text(text) for name, text
                          in cli["trees"][k].items() if name.endswith(".rlat")]
                self._check_leaves(c, leaves, n, where)
            if back is not FAILED:
                c.expect(back[0] == 0, "%s: reassemble exits %s"
                         % (where, back[0]))
                if back[0] == 0:
                    algebra = parse_text(back[1])
                    m = rlat().find_isomorphism(fresh(algebra), fresh(inp))
                    c.expect(is_isomorphism(algebra, inp, m),
                             "%s: reassembled algebra is not isomorphic to the "
                             "input" % where)
        deep = results[-1]
        if deep is not FAILED:
            c.expect(deep[0] == 2, "rlat glue on a malformed spec chain exits "
                     "%s, not 2" % deep[0])
        return c.errors

    @staticmethod
    def _check_leaves(c, leaves, n, where):
        c.expect(all(is_boolean(leaf) for leaf in leaves),
                 "%s: a decomposition leaf is not Boolean" % where)
        c.expect(sum(len(leaf.names) for leaf in leaves) == n,
                 "%s: leaf sizes do not add up to %d" % (where, n))


def mutant(a, rng):
    """A symmetric single-cell change of join or fusion that is sure to
    break an axiom: associativity at (x, x, y) or (y, y, x), or the unit."""
    n = len(a.names)
    while True:
        table = rng.choice(("join", "fusion"))
        x, y = rng.sample(range(n), 2)
        v = rng.randrange(n)
        t = [list(row) for row in getattr(a, table)]
        if t[x][y] == v:
            continue
        t[x][y] = t[y][x] = v
        if t[x][v] != v or t[y][v] != v or (table == "fusion"
                                             and a.one in (x, y)):
            return a._replace(**{table: t})


class Boolean(Workload):
    """Boolean algebras: one block holding the whole carrier, 2^k
    congruences, and a decomposition that is a single leaf; beside them a
    sample of mutants that validate must reject."""

    name = "boolean"

    def setup(self, rng):
        R = rlat()
        state = {"algebras": [], "mutants": []}
        sources = []
        for k in self.ks:
            alg, _ = shuffled(tables(R.boolean_algebra(k)), rng)
            path = os.path.join(self.work, "bool%d.rlat" % k)
            write(path, emit_text(alg))
            state["algebras"].append({"k": k, "input": alg, "path": path,
                                      "sample": rng.sample(range(1 << k), 3)})
            sources.append(alg)
        sources.append(shuffled(tables(R.build_an(self.an_k)), rng)[0])
        a1 = os.path.join(self.root, "fixtures", "a1.rlat")
        with open(a1, encoding="utf-8") as fh:
            sources.append(shuffled(parse_text(fh.read()), rng)[0])
        for src in sources:
            for _ in range(self.per_source):
                m = mutant(src, rng)
                path = os.path.join(self.work,
                                    "mut%d.rlat" % len(state["mutants"]))
                write(path, emit_text(m))
                state["mutants"].append({"input": m, "path": path})
        return state

    def lib_pass(self, state, lp):
        R = rlat()
        out = {"algebras": [], "mutants": []}
        for s in state["algebras"]:
            inp = s["input"]
            rep = lp.call(R.validate, fresh(inp))
            part = lp.call(R.partition, fresh(inp))
            con = lp.call(R.congruence_lattice, fresh(inp))
            tree = lp.call(R.decompose, fresh(inp))
            out["algebras"].append({
                "report": plain(rep, lambda r: r.checks),
                "blocks": plain(part, lambda p: [b.elements for b in p.blocks]),
                "congruences": plain(con, lambda cl: [t.relation for t in
                                                      cl.congruences]),
                "leaves": plain(tree, lambda t: [tables(leaf.algebra)
                                                 for leaf in t.leaves()]),
            })
        for s in state["mutants"]:
            rep = lp.call(R.validate, fresh(s["input"]))
            out["mutants"].append(plain(rep, lambda r: r.checks))
        return out

    def commands(self, state, out_dir):
        cmds = []
        for s in state["algebras"]:
            f = s["path"]
            cmds += [["check", f], ["partition", f], ["congruences", f],
                     ["decompose", f]]
        cmds += [["check", s["path"]] for s in state["mutants"]]
        return cmds

    def check(self, state, lib, cli):
        c = Checks()
        results = cli["results"]
        for i, (s, out) in enumerate(zip(state["algebras"], lib["algebras"])):
            inp, n = s["input"], 1 << s["k"]
            where = "boolean_algebra(%d)" % s["k"]
            c.expect(laws_hold(inp), "%s: input breaks a law" % where)
            if out["report"] is not FAILED:
                c.expect([(name, ok) for name, ok, _ in out["report"]]
                         == [(name, True) for name in AXIOMS],
                         "%s: validate rejects a member" % where)
            if out["blocks"] is not FAILED:
                c.expect(len(out["blocks"]) == 1,
                         "%s: more than one block" % where)
                check_blocks(c, inp, out["blocks"], where)
            if out["congruences"] is not FAILED:
                c.expect(len(out["congruences"]) == n,
                         "%s: not 2^k congruences" % where)
                check_congruences(c, inp, out["congruences"], s["sample"],
                                  where)
            if out["leaves"] is not FAILED:
                c.expect(out["leaves"] == [inp],
                         "%s: decomposition is not the algebra itself" % where)

            chk, part, con, dec = results[4 * i: 4 * i + 4]
            where = "rlat on " + where
            if chk is not FAILED:
                c.expect(chk[0] == 0, "%s: check exits %s" % (where, chk[0]))
                check_pass_lines(c, chk[1], where)
            if part is not FAILED:
                blocks = cli_blocks(inp, part[1])
                c.expect(part[0] == 0 and len(blocks) == 1,
                         "%s: partition is not one block" % where)
                check_blocks(c, inp, blocks, where)
            if con is not FAILED:
                check_cli_congruences(c, inp, con, where)
            if dec is not FAILED:
                c.expect(dec == (0, "leaf t: %d elements\n" % n),
                         "%s: decompose is not a single leaf" % where)

        mut_results = results[4 * len(state["algebras"]):]
        for i, (s, rep, res) in enumerate(zip(state["mutants"], lib["mutants"],
                                              mut_results)):
            m = s["input"]
            scan = axiom_scan(m)
            c.expect(not all(ok for _, ok, _ in scan),
                     "mutant %d: satisfies every axiom" % i)
            if rep is not FAILED:
                c.expect(rep == scan, "mutant %d: validate's verdicts or "
                         "witnesses differ from the plain scan" % i)
            if res is not FAILED:
                c.expect(res == (1, "\n".join(report_lines(scan, m.names))
                                 + "\n"),
                         "mutant %d: `rlat check` output or exit code differs "
                         "from the plain scan" % i)
        return c.errors


class Enum(Workload):
    """All members up to a size, up to isomorphism, by the library's search.
    The enumeration has no input, so the seed changes nothing here."""

    name = "enum"

    def setup(self, rng):
        return {}

    def lib_pass(self, state, lp):
        corpus = lp.call(rlat().enumerate_up_to_iso, self.max_size)
        return plain(corpus, lambda cp: {
            "counts": dict(cp.counts),
            "algebras": [tables(a) for a in cp.algebras]})

    def commands(self, state, out_dir):
        return [["enum", str(self.max_size), "--out",
                 os.path.join(out_dir, "enum")]]

    def collect(self, state, out_dir, results):
        return {"results": results,
                "files": read_dir(os.path.join(out_dir, "enum"))}

    def check(self, state, lib, cli):
        c = Checks()
        want = {n + 1: count for n, count in
                enumerate(ENUM_COUNTS[:self.max_size])}
        by_size = {}
        if lib is not FAILED:
            c.expect(lib["counts"] == want, "enumerate_up_to_iso counts %s, "
                     "not %s" % (lib["counts"], want))
            for a in lib["algebras"]:
                by_size.setdefault(len(a.names), []).append(a)
            c.expect({n: len(v) for n, v in by_size.items()} == want,
                     "enumerate_up_to_iso returns other algebras than it "
                     "counts")
            self._check_members(c, by_size)

        res = cli["results"][0]
        if res is not FAILED:
            c.expect(res == (0, "".join("size %d: %d\n" % kv
                                        for kv in want.items())),
                     "`rlat enum` prints other counts than %s" % want)
            files = {}
            for name, text in cli["files"].items():
                a = parse_text(text)
                files.setdefault(len(a.names), []).append(a)
            c.expect({n: len(v) for n, v in files.items()} == want,
                     "`rlat enum` writes other files than it counts")
            for n, algebras in files.items():
                c.expect(all(laws_hold(a) for a in algebras),
                         "`rlat enum` writes a size-%d non-member" % n)
                for a in algebras:
                    c.expect(sum(isomorphic(a, b) for b in by_size.get(n, []))
                             == 1, "a size-%d file of `rlat enum` matches no "
                             "library output" % n)
        return c.errors

    @staticmethod
    def _check_members(c, by_size):
        R = rlat()
        for n, algebras in by_size.items():
            c.expect(not any(isomorphic(a, b) for i, a in enumerate(algebras)
                             for b in algebras[i + 1:]),
                     "size %d: two outputs are isomorphic" % n)
            for a in algebras:
                if not c.expect(laws_hold(a), "size %d: an output breaks a law"
                                % n) or is_boolean(a):
                    continue
                # the paper's structure theorem: a non-Boolean member is
                # glued from two smaller members
                try:
                    s = R.split(fresh(a), R.find_atoms(fresh(a))[0])
                except (IndexError, ValueError) as exc:
                    c.expect(False, "size %d: split fails: %s" % (n, exc))
                    continue
                lower, upper = tables(s.lower), tables(s.upper)
                c.expect(sorted(lower.names + upper.names) == sorted(a.names)
                         and is_restriction(lower, a, same_unit=False)
                         and is_restriction(upper, a, same_unit=True),
                         "size %d: split factors are not pieces of the "
                         "algebra" % n)
                for part in (lower, upper):
                    size = len(part.names)
                    c.expect(laws_hold(part) and any(
                        isomorphic(part, b) for b in by_size.get(size, [])),
                        "size %d: a split factor matches no size-%d output"
                        % (n, size))


WORKLOADS = {"chain": Chain, "boolean": Boolean, "enum": Enum}
