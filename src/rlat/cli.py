"""Command line surface.

Exit codes: 0 success or property holds; 1 axiom/property fails (witness on
standard output); 2 invalid input or usage; 141, as on SIGPIPE, when
standard output or standard error has no reader. `-` reads standard
input: an algebra file, or a spec file for `glue`.
"""

import os
import sys

from .core import Rejected, validate
from .fileformat import (_lines, _load, _load_tree, _stems, _write_corpus,
                         dot_export, write_tree)

# the package: the commands reach every other public name through it, so
# each loads only the modules of the names it reads
rlat = sys.modules[__package__]

# property name -> the function of rlat.props that decides it
_PROPS = {
    "distr-semilattice": "is_distributive_semilattice",
    "distr-lattice": "is_lattice_distributive",
    "semilinear": "is_semilinear",
}


def _read_algebra(path, spec=False):
    try:
        return _load(path, spec)
    except Rejected as exc:   # a file under a gluing spec: invalid input
        raise ValueError(exc) from None


def _cmd_check(path):
    alg = _read_algebra(path)
    rep = validate(alg)
    print("\n".join(rep.lines(alg.names)))
    return 0 if rep.ok else 1


def _cmd_partition(path):
    alg = _read_algebra(path)
    p = rlat.partition(alg)
    for b in p.blocks:
        print("block bottom=%s top=%s elements=%s"
              % (alg.names[b.bottom], alg.names[b.top],
                 " ".join(alg.names[x] for x in b.elements)))
    print("skeleton " + " ".join(alg.names[x] for x in p.skeleton))
    return 0


def _cmd_congruences(path):
    alg = _read_algebra(path)
    con = rlat.congruence_lattice(alg)
    print("congruences %d" % len(con.congruences))
    for gen, theta in zip(con.generators, con.congruences):
        print("generator=%s classes=%d" % (alg.names[gen],
                                           len(theta.classes)))
    return 0


def _cmd_glue(specfile):
    sys.stdout.writelines(_lines(_read_algebra(specfile, spec=True)))
    return 0


def _cmd_decompose(path, out):
    alg = _read_algebra(path)
    tree = rlat.decompose(alg)
    # the tree is written before anything is printed, so a refused write
    # prints nothing on standard output
    written = write_tree(tree, out) if out is not None else []
    for part, stem in _stems(tree):
        if isinstance(part, rlat.Leaf):
            print("leaf %s: %d elements" % (stem, part.algebra.n))
        else:
            print("node %s: atom=%s complement=%s a=%s b=%s"
                  % (stem, part.atom, part.complement, part.a, part.b))
    for fname, _ in written:
        print("wrote %s" % fname)
    return 0


def _cmd_reassemble(directory):
    try:
        alg = _load_tree(directory)
    except Rejected as exc:   # a file of the tree: invalid input
        raise ValueError(exc) from None
    sys.stdout.writelines(_lines(alg))
    return 0


def _cmd_gen(family, number):
    build = rlat.build_an if family == "an" else rlat.boolean_algebra
    sys.stdout.writelines(_lines(build(number)))
    return 0


def _cmd_enum(maxsize, out):
    corpus = rlat.enumerate_up_to_iso(maxsize)
    _write_corpus(out, corpus.algebras)
    for size in sorted(corpus.counts):
        print("size %d: %d" % (size, corpus.counts[size]))
    return 0


def _cmd_prop(name, path):
    alg = _read_algebra(path)
    verdict = getattr(rlat, _PROPS[name])(alg)
    if verdict.holds:
        print("holds")
        return 0
    labels = "xyz"
    print(" ".join("%s=%s" % (labels[i], alg.names[v])
                   for i, v in enumerate(verdict.witness)))
    return 1


def _cmd_dot(path, order):
    sys.stdout.write(dot_export(_read_algebra(path), order))
    return 0


_REQUIRED = object()   # the default of an option that must be given
_FILE = ("FILE", str)

# command -> (function, positionals, options, description). A positional is
# (metavar, values), where values is str, int or a tuple of the choices,
# shown as {a|b} in place of a metavar of None; an option maps its --name
# to (metavar, values, default). The function takes the positionals, then
# the options in this order. `rlat -h` prints one line per command, the
# block under "Command line" in README.md
_COMMANDS = {
    "check": (_cmd_check, [_FILE], {},
              "validate every axiom (exit 0 ok, 1 fail)"),
    "partition": (_cmd_partition, [_FILE], {},
                  "blocks, bottoms/tops, skeleton"),
    "congruences": (_cmd_congruences, [_FILE], {},
                    "congruence count and class sizes"),
    "glue": (_cmd_glue, [("SPECFILE", str)], {},
             "glue two algebras per a spec file"),
    "decompose": (_cmd_decompose, [_FILE], {"--out": ("DIR", str, None)},
                  "print the split tree; optionally write it"),
    "reassemble": (_cmd_reassemble, [("DIR", str)], {},
                   "glue a written tree back together"),
    "gen": (_cmd_gen, [(None, ("an", "bool")), ("N", int)], {},
            "emit a stock algebra"),
    "enum": (_cmd_enum, [("MAXSIZE", int)],
             {"--out": ("DIR", str, _REQUIRED)},
             "enumerate members up to isomorphism"),
    "prop": (_cmd_prop, [("NAME", tuple(_PROPS)), _FILE], {},
             " | ".join(_PROPS)),
    "dot": (_cmd_dot, [_FILE],
            {"--order": (None, ("lattice", "monoidal"), "lattice")},
            "Hasse diagram as DOT text"),
}


def _metavar(metavar, values):
    return metavar or "{%s}" % "|".join(values)


def _synopsis(command):
    """The arguments of command as `rlat -h` shows them."""
    _, positionals, options, _ = _COMMANDS[command]
    words = [_metavar(*spec) for spec in positionals]
    for option, (metavar, values, default) in options.items():
        word = "%s %s" % (option, _metavar(metavar, values))
        words.append(word if default is _REQUIRED else "[%s]" % word)
    return " ".join([command] + words)


def _help_line(command):
    # descriptions start in the column after `rlat enum MAXSIZE --out DIR`
    return "%-27s  %s" % ("rlat " + _synopsis(command), _COMMANDS[command][3])


def _usage_error(command, message):
    """Print the usage of command (of rlat when None) and message on
    standard error, and exit 2."""
    usage = (_synopsis(command) if command
             else "{%s} ..." % "|".join(_COMMANDS))
    print("usage: rlat %s\nrlat: error: %s" % (usage, message),
          file=sys.stderr)
    raise SystemExit(2)


def _is_positional(arg):
    """`-`, a negative integer or any argument not led by `-`."""
    return arg[:1] != "-" or arg == "-" or arg[1:].isdecimal()


def _value(command, metavar, values, arg):
    if isinstance(values, tuple):
        if arg not in values:
            _usage_error(command, "argument %s: invalid choice: %r (choose "
                         "from %s)" % (_metavar(metavar, values), arg,
                                       ", ".join(values)))
        return arg
    try:
        return values(arg)
    except ValueError:
        _usage_error(command, "argument %s: invalid %s value: %r"
                     % (metavar, values.__name__, arg))


def _parse(argv):
    """The function of the command that argv names, and the arguments to
    call it with, by the grammar under "Command line" in README.md: the
    command is the first positional, and the last of a repeated option
    holds. Help exits 0, and a usage error exits 2."""
    command, positionals, options = None, [], {}
    values, given, unknown, ended = [], {}, [], False
    args = iter(argv)
    for arg in args:
        # the options of the command that arg names, in full or by prefix
        key, eq, value = arg.partition("=")
        names = [o for o in options if len(key) > 2 and o.startswith(key)]
        if arg == "--" and command and not ended:
            ended = True   # before the command, `--` is an invalid command
        elif ended or _is_positional(arg) or arg == "--":
            if command is None:
                if arg not in _COMMANDS:
                    _usage_error(None, "invalid command: %r" % arg)
                command = arg
                func, positionals, options, _ = _COMMANDS[command]
            elif len(values) < len(positionals):
                values.append(_value(command, *positionals[len(values)],
                                     arg))
            else:
                unknown.append(arg)
        elif arg == "-h" or len(arg) > 2 and "--help".startswith(arg):
            commands = [command] if command else _COMMANDS
            print("\n".join(_help_line(c) for c in commands), flush=True)
            raise SystemExit(0)
        elif len(names) == 1:
            if not eq:   # the value is the next argument, if a positional
                value = next(args, "--")
                if not _is_positional(value):
                    _usage_error(command, "argument %s: expected one "
                                 "argument" % names[0])
            given[names[0]] = _value(command, names[0],
                                     options[names[0]][1], value)
        else:
            unknown.append(arg)
    if command is None:
        _usage_error(None, "the following arguments are required: COMMAND")
    missing = [_metavar(*spec) for spec in positionals[len(values):]]
    missing += [o for o, (_, _, default) in options.items()
                if default is _REQUIRED and o not in given]
    if missing:
        _usage_error(command, "the following arguments are required: %s"
                     % ", ".join(missing))
    if unknown:
        _usage_error(command, "unrecognized arguments: %s"
                     % " ".join(unknown))
    return func, values + [given.get(o, spec[2])
                           for o, spec in options.items()]


def run(argv=None):
    func, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return func(*args)
    except BrokenPipeError:   # the reader of standard output has gone
        raise
    except Rejected as exc:   # the input of the command is not a member
        print("\n".join(exc.report.lines(exc.subject.names)))
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    try:
        try:
            code = run()
        except SystemExit as exc:   # -h or a usage error, already printed
            code = exc.code
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:   # exit as a command ended by SIGPIPE does
        code = 141
    # the process ends here, with its output written: no interpreter
    # shutdown is left to collect the heap or flush into a closed pipe
    os._exit(code)


if __name__ == "__main__":
    main()
