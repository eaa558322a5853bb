"""Line-oriented text formats for algebras and gluing specs, plus DOT export.

An algebra file holds five sections keyed by the first token of each line:
one `elements` line, one `one` line, one `neg` line, and n `join` plus n
`fusion` lines giving the tables row by row. Blank lines and lines starting
with `#` are ignored. A gluing spec file references two other files (paths
are resolved relative to the spec file) and lists the connecting map as
`phi x -> y` lines; a referenced file may itself be a spec, which makes a
decomposition tree on disk reassemblable by loading its root.

Two directory layouts are written here and nowhere else: a decomposition
tree (write_tree; root t, then 0 for a lower part and 1 for an upper) and
an enumerated corpus (n<size>_<i>.rlat).
"""

import os
import sys
from collections import namedtuple

from .core import FiniteInRL, bits, check_member

_SECTIONS = ("elements", "one", "neg", "join", "fusion")

# name of the root of a decomposition tree written by write_tree
TREE_ROOT = "t"


class ParseError(ValueError):
    """A malformed file; lineno is the number of the line at fault."""

    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _grouped_lines(text, allowed):
    """Key -> [(line number, the line's text after its key)], in line order.
    The text is split into tokens only where it is read, a row at a time, so
    a file's tokens are never all held at once."""
    groups = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key = line.split(None, 1)[0]
        if key not in allowed:
            raise ParseError(lineno, "unknown section %r" % key)
        groups.setdefault(key, []).append((lineno, line[len(key):]))
    return groups


def _section(groups, key):
    """(line number, text) of the one line of section key."""
    if key not in groups:
        raise ParseError(1, "missing section %r" % key)
    if len(groups[key]) > 1:
        raise ParseError(groups[key][1][0], "duplicate section %r" % key)
    return groups[key][0]


def parse(text):
    """Algebra file text to FiniteInRL; structural errors carry line numbers."""
    groups = _grouped_lines(text, _SECTIONS)
    for key in _SECTIONS:
        if key not in groups:
            raise ParseError(1, "missing section %r" % key)
    (lineno, line), one_line, neg_line = [
        _section(groups, key) for key in ("elements", "one", "neg")]
    names = line.split()
    if len(set(names)) != len(names):
        raise ParseError(lineno, "duplicate element names")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    def resolve(lineno, tokens):
        try:
            return list(map(index.__getitem__, tokens))
        except KeyError:
            bad = next(t for t in tokens if t not in index)
            raise ParseError(lineno, "undeclared element %r" % bad) from None

    lineno, line = one_line
    tokens = line.split()
    if len(tokens) != 1:
        raise ParseError(lineno, "section 'one' needs exactly one token")
    one, = resolve(lineno, tokens)

    lineno, line = neg_line
    tokens = line.split()
    if len(tokens) != n:
        raise ParseError(lineno, "section 'neg' needs %d tokens, got %d"
                         % (n, len(tokens)))
    neg = resolve(lineno, tokens)

    tables = {}
    for key in ("join", "fusion"):
        rows = groups[key]
        if len(rows) != n:
            raise ParseError(rows[-1][0] if rows else 1,
                             "section %r needs %d rows, got %d"
                             % (key, n, len(rows)))
        table = []
        for lineno, line in rows:
            tokens = line.split()
            if len(tokens) != n:
                raise ParseError(lineno, "row needs %d tokens, got %d"
                                 % (n, len(tokens)))
            table.append(resolve(lineno, tokens))
        tables[key] = table
    # one resolves, so n >= 1; the names are distinct tokens, and neg and
    # the n rows of each table hold n resolved ids each: the structure that
    # FiniteInRL's constructor would check again
    return FiniteInRL._of(names, one, neg, tables["join"], tables["fusion"])


def emit(alg):
    """Canonical text for an algebra: fixed section order, single spaces."""
    return "".join(_lines(alg))


def _lines(alg):
    """The lines of emit(alg), each made as it is asked for."""
    names = alg.names
    yield "elements " + " ".join(names) + "\n"
    yield "one " + names[alg.one] + "\n"
    for key, rows in (("neg", [alg.neg]), ("join", alg.join),
                      ("fusion", alg.fusion)):
        for row in rows:
            yield key + " " + " ".join(map(names.__getitem__, row)) + "\n"


class GluingSpecFile(namedtuple("GluingSpecFile",
                                 "lower_ref upper_ref a b pairs")):
    """pairs: phi as (x name in lower, y name in upper)."""
    __slots__ = ()


def parse_gluing(text):
    groups = _grouped_lines(text, ("lower", "upper", "a", "b", "phi"))
    fields = {}
    for key in ("lower", "upper", "a", "b"):
        lineno, line = _section(groups, key)
        tokens = line.split()
        if len(tokens) != 1:
            raise ParseError(lineno, "section %r needs exactly one token"
                             % key)
        fields[key] = tokens[0]
    pairs = []
    for lineno, line in groups.get("phi", []):
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "->":
            raise ParseError(lineno, "phi lines read 'phi x -> y'")
        pairs.append((tokens[0], tokens[2]))
    if not pairs:
        raise ParseError(1, "missing section 'phi'")
    return GluingSpecFile(fields["lower"], fields["upper"],
                          fields["a"], fields["b"], tuple(pairs))


def emit_gluing(spec_file):
    return ("lower %s\nupper %s\na %s\nb %s\n" % spec_file[:4]
            + "".join("phi %s -> %s\n" % pair for pair in spec_file.pairs))


def load_algebra(path):
    """Load an algebra file (`-` for standard input), or glue a .gspec file.

    A spec file and the files under it are read into a tree of Leaf and
    Node, depth first, lower before upper, from an explicit stack, so a
    chain of specs of any depth loads without recursion. A spec that refers
    back to a spec it is nested in raises ParseError. The tree is then glued
    in one pass: every algebra file under a spec must be a member and every
    spec must pass validate_gluing, or ValueError names the file; the glued
    result is then a member and is not checked again.
    """
    return _load(os.fsdecode(path), False)


def _load(path, spec):
    """load_algebra(path), the file at path read as a spec also when spec
    is true; a spec on standard input refers to the working directory."""
    if spec or path.endswith(".gspec"):   # only a spec leads to other files
        from .gluing import Leaf, Node, _glue_tree
    labels = {}      # id of a part -> the file it was read from
    nested = set()   # real paths of the specs on the stack
    stack = []       # (path, real path, directory, spec file, [lower part])
    while True:
        if path == "-":   # only the first path: the others are joined
            real, base, text = None, os.getcwd(), sys.stdin.read()
        else:
            real = os.path.realpath(path)
            if real in nested:
                raise ParseError(1, "circular reference through %s" % path)
            base = os.path.dirname(real)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        if path.endswith(".gspec") or spec and not stack:   # the first file
            sf = parse_gluing(text)
            nested.add(real)
            stack.append((path, real, base, sf, []))
            path = os.path.join(base, sf.lower_ref)
            continue
        if not stack:
            return parse(text)
        part = Leaf(parse(text))
        labels[id(part)] = path
        # part is the upper part of every spec on top whose lower is read
        while stack and stack[-1][4]:
            spec_path, spec_real, _, sf, (lower,) = stack.pop()
            nested.remove(spec_real)
            part = Node(None, None, sf.a, sf.b, sf.pairs, lower, part)
            labels[id(part)] = "gluing spec " + spec_path
        if not stack:
            return _glue_tree(part, labels)
        _, _, base, sf, read = stack[-1]
        read.append(part)
        path = os.path.join(base, sf.upper_ref)


def _write_files(outdir, files, stale):
    """Write files, name -> an iterable of its lines, into outdir, made if
    missing, and remove every other file there whose name stale accepts.
    Raises ValueError, and makes, writes or removes nothing, when a name is
    longer than outdir can hold."""
    # a directory made is on the file system of the nearest one that exists
    made = outdir
    while not os.path.exists(made):
        made = os.path.dirname(made) or os.curdir
    limit = os.pathconf(made, "PC_NAME_MAX")
    if max(map(len, files)) > limit:     # ASCII names
        raise ValueError("tree too deep: its file names are longer than "
                         "the limit of %d bytes in %s" % (limit, outdir))
    os.makedirs(outdir, exist_ok=True)
    for old in filter(stale, set(os.listdir(outdir)) - files.keys()):
        os.remove(os.path.join(outdir, old))
    for name, lines in files.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def _write_corpus(outdir, algebras):
    """Write algebras into outdir as n<size>_<i>.rlat, i counting from 0
    within each size, by _write_files, which removes every other file there
    of that name form."""
    index, files = {}, {}
    for alg in algebras:
        index[alg.n] = i = index.get(alg.n, -1) + 1
        files["n%d_%d.rlat" % (alg.n, i)] = _lines(alg)

    def stale(old):
        size, _, i = old[1:-len(".rlat")].partition("_")
        return (old.isascii() and old[0] == "n" and old.endswith(".rlat")
                and size.isdecimal() and i.isdecimal())

    _write_files(outdir, files, stale)


def write_tree(tree, outdir):
    """Write a decomposition tree as one file per leaf and per node.

    The root is named TREE_ROOT. A leaf at name p becomes p.rlat; a node
    becomes p.gspec referencing its children p0 and p1. Returns the list of
    (filename, kind) written, root first, and removes every file of an
    earlier tree (TREE_ROOT, then 0s and 1s, .rlat or .gspec) that it does
    not overwrite. Raises ValueError, and writes or removes no file, when a
    name is longer than the directory can hold.
    """
    from .gluing import Leaf

    def fname(part, stem):
        return stem + (".rlat" if isinstance(part, Leaf) else ".gspec")

    files = {}
    for part, stem in _stems(tree):
        files[fname(part, stem)] = (
            _lines(part.algebra) if isinstance(part, Leaf)
            else [emit_gluing(GluingSpecFile(
                fname(part.lower, stem + "0"), fname(part.upper, stem + "1"),
                part.a, part.b, part.pairs))])

    def stale(old):
        # every stem _stems can give; _load_tree reads t.gspec before
        # t.rlat, so a root of the other kind left by an earlier tree would
        # be read in place of this one
        stem, _, ext = old.rpartition(".")
        return (ext in ("rlat", "gspec") and stem.startswith(TREE_ROOT)
                and not stem[len(TREE_ROOT):].strip("01"))

    _write_files(os.fsdecode(outdir), files, stale)
    return [(f, "leaf" if f.endswith(".rlat") else "node") for f in files]


def _stems(tree):
    """Every part of tree with its file stem, root first: the root is
    TREE_ROOT, and a node comes before its lower subtree (its stem + "0")
    and then its upper (its stem + "1")."""
    from .gluing import Leaf
    todo = [(tree, TREE_ROOT)]
    while todo:
        part, stem = todo.pop()
        yield part, stem
        if not isinstance(part, Leaf):
            todo += ((part.upper, stem + "1"), (part.lower, stem + "0"))


def _load_tree(directory):
    """The algebra of the tree write_tree wrote last into directory, read
    from its root. A one-leaf tree's root, t.rlat, must be a member, as
    every leaf under a t.gspec must, or Rejected names its real path."""
    for ext in (".gspec", ".rlat"):
        root = os.path.join(directory, TREE_ROOT + ext)
        if os.path.exists(root):
            alg = _load(root, False)
            if ext == ".rlat":   # no spec checks it
                check_member(alg, os.path.realpath(root))
            return alg
    raise ValueError("no %s.gspec or %s.rlat in %s"
                     % (TREE_ROOT, TREE_ROOT, directory))


def _quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _covers(up):
    """Cover pairs (x, y) of the preorder given by up-set masks."""
    out = []
    for x, row in enumerate(up):
        strict = above = row & ~(1 << x)
        for z in bits(strict):
            # some z with x < z < y disqualifies the pair
            above &= ~(up[z] & ~(1 << z))
        out.extend((x, y) for y in bits(above))
    return tuple(out)


def dot_export(alg, order):
    """DOT digraph of the Hasse covers of order, 'lattice' or 'monoidal';
    raises ValueError if alg is not a member or order is neither."""
    check_member(alg)
    if order == "lattice":
        covers = _covers(alg.lat_up)
    elif order == "monoidal":
        covers = _covers(alg.mon_up)
    else:
        raise ValueError("order must be 'lattice' or 'monoidal'")
    lines = ["digraph %s {" % order, "  rankdir=BT;"]
    for name in alg.names:
        lines.append("  %s;" % _quote(name))
    for x, y in sorted(covers):
        lines.append("  %s -> %s;" % (_quote(alg.names[x]),
                                      _quote(alg.names[y])))
    lines.append("}")
    return "\n".join(lines) + "\n"
