"""Command line surface.

Exit codes: 0 success or property holds; 1 axiom/property fails (witness on
standard output); 2 invalid input or usage. `-` reads an algebra file from
standard input.
"""

import argparse
import os
import sys

from .core import Rejected, check_member, validate
from .fileformat import (TREE_ROOT, ParseError, dot_export, emit,
                         load_algebra, parse, parse_gluing, write_tree)

# the package: the commands reach every other public name through it, so
# each loads only the modules of the names it reads
rlat = sys.modules[__package__]

# property name -> the function of rlat.props that decides it
_PROPS = {
    "distr-semilattice": "is_distributive_semilattice",
    "distr-lattice": "is_lattice_distributive",
    "semilinear": "is_semilinear",
}


def _read_algebra(path):
    if path == "-":
        return parse(sys.stdin.read())
    try:
        return load_algebra(path)
    except Rejected as exc:   # a file under a gluing spec: invalid input
        raise ValueError(exc) from None


def _cmd_check(args):
    alg = _read_algebra(args.file)
    rep = validate(alg)
    for line in rep.lines(alg.names):
        print(line)
    return 0 if rep.ok else 1


def _cmd_partition(args):
    alg = _read_algebra(args.file)
    p = rlat.partition(alg)
    for b in p.blocks:
        print("block bottom=%s top=%s elements=%s"
              % (alg.names[b.bottom], alg.names[b.top],
                 " ".join(alg.names[x] for x in b.elements)))
    print("skeleton " + " ".join(alg.names[x] for x in p.skeleton))
    return 0


def _cmd_congruences(args):
    alg = _read_algebra(args.file)
    con = rlat.congruence_lattice(alg)
    print("congruences %d" % len(con.congruences))
    for gen, theta in zip(con.generators, con.congruences):
        print("generator=%s classes=%d" % (alg.names[gen],
                                           len(theta.classes)))
    return 0


def _cmd_glue(args):
    if args.specfile == "-":
        sf = parse_gluing(sys.stdin.read())
        base = os.getcwd()
    else:
        with open(args.specfile, "r", encoding="utf-8") as fh:
            sf = parse_gluing(fh.read())
        base = os.path.dirname(os.path.realpath(args.specfile))
    paths = [os.path.join(base, ref) for ref in (sf.lower_ref, sf.upper_ref)]
    lower, upper = map(_read_algebra, paths)
    try:
        glued = rlat.glue(rlat.build_spec(sf, lower, upper))
    except Rejected as exc:
        for line in exc.report.lines():
            print(line)
        for role, alg, path in zip(("lower", "upper"), (lower, upper), paths):
            if exc.subject is alg:
                print("error: %s operand %s is not a member" % (role, path),
                      file=sys.stderr)
        return 1
    sys.stdout.write(emit(glued))
    return 0


def _cmd_decompose(args):
    alg = _read_algebra(args.file)
    tree = rlat.decompose(alg)
    for part, name in tree._named(TREE_ROOT):
        if isinstance(part, rlat.Leaf):
            print("leaf %s: %d elements" % (name, part.algebra.n))
        else:
            print("node %s: atom=%s complement=%s a=%s b=%s"
                  % (name, part.atom, part.complement, part.a, part.b))
    if args.out:
        for fname, _ in write_tree(tree, args.out):
            print("wrote %s" % fname)
    return 0


def _cmd_reassemble(args):
    for ext in (".gspec", ".rlat"):
        root = os.path.join(args.dir, TREE_ROOT + ext)
        if os.path.exists(root):
            sys.stdout.write(emit(_read_algebra(root)))
            return 0
    print("error: no %s.gspec or %s.rlat in %s"
          % (TREE_ROOT, TREE_ROOT, args.dir), file=sys.stderr)
    return 2


def _cmd_gen(args):
    build = rlat.build_an if args.family == "an" else rlat.boolean_algebra
    sys.stdout.write(emit(build(args.number)))
    return 0


def _cmd_enum(args):
    corpus = rlat.enumerate_up_to_iso(args.maxsize)
    os.makedirs(args.out, exist_ok=True)
    index = {}
    for alg in corpus.algebras:
        i = index.get(alg.n, 0)
        index[alg.n] = i + 1
        fname = "n%d_%d.rlat" % (alg.n, i)
        with open(os.path.join(args.out, fname), "w",
                  encoding="utf-8") as fh:
            fh.write(emit(alg))
    for size in sorted(corpus.counts):
        print("size %d: %d" % (size, corpus.counts[size]))
    return 0


def _cmd_prop(args):
    alg = _read_algebra(args.file)
    verdict = getattr(rlat, _PROPS[args.name])(alg)
    if verdict.holds:
        print("holds")
        return 0
    labels = "xyz"
    print(" ".join("%s=%s" % (labels[i], alg.names[v])
                   for i, v in enumerate(verdict.witness)))
    return 1


def _cmd_dot(args):
    alg = _read_algebra(args.file)
    check_member(alg)
    sys.stdout.write(dot_export(alg, args.order))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rlat",
        description="Finite commutative idempotent involutive residuated "
                    "lattices: validation, partitions, congruences, gluing, "
                    "decomposition, generation, enumeration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every axiom")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("partition", help="Boolean blocks and skeleton")
    p.add_argument("file")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("congruences", help="congruence lattice summary")
    p.add_argument("file")
    p.set_defaults(func=_cmd_congruences)

    p = sub.add_parser("glue", help="glue two algebras per a spec file")
    p.add_argument("specfile")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("decompose", help="split into Boolean leaves")
    p.add_argument("file")
    p.add_argument("--out", help="write the tree to this directory")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reassemble", help="glue a written tree back together")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_reassemble)

    p = sub.add_parser("gen", help="generate a stock algebra")
    p.add_argument("family", choices=("an", "bool"))
    p.add_argument("number", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enum", help="enumerate members up to isomorphism")
    p.add_argument("maxsize", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("prop", help="decide a property")
    p.add_argument("name", choices=sorted(_PROPS))
    p.add_argument("file")
    p.set_defaults(func=_cmd_prop)

    p = sub.add_parser("dot", help="Hasse diagram as DOT text")
    p.add_argument("file")
    p.add_argument("--order", choices=("lattice", "monoidal"),
                   default="lattice")
    p.set_defaults(func=_cmd_dot)
    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Rejected as exc:   # the input of the command is not a member
        for line in exc.report.lines():
            print(line)
        return 1
    except (ParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
