"""Line-oriented text formats for algebras and gluing specs, plus DOT export.

An algebra file holds five sections keyed by the first token of each line:
one `elements` line, one `one` line, one `neg` line, and n `join` plus n
`fusion` lines giving the tables row by row. Blank lines and lines starting
with `#` are ignored. A gluing spec file references two other files (paths
are resolved relative to the spec file) and lists the connecting map as
`phi x -> y` lines; a referenced file may itself be a spec, which makes a
decomposition tree on disk reassemblable by loading its root.
"""

import os
from collections import namedtuple

from .core import FiniteInRL

_SECTIONS = ("elements", "one", "neg", "join", "fusion")

# name of the root of a decomposition tree written by write_tree
TREE_ROOT = "t"


class ParseError(Exception):
    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _grouped_lines(text, allowed):
    groups = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0]
        if key not in allowed:
            raise ParseError(lineno, "unknown section %r" % key)
        groups.setdefault(key, []).append((lineno, tokens[1:]))
    return groups


def parse(text):
    """Algebra file text to FiniteInRL; structural errors carry line numbers."""
    groups = _grouped_lines(text, _SECTIONS)
    for key in _SECTIONS:
        if key not in groups:
            raise ParseError(1, "missing section %r" % key)
    for key in ("elements", "one", "neg"):
        if len(groups[key]) > 1:
            raise ParseError(groups[key][1][0],
                             "duplicate section %r" % key)

    lineno, names = groups["elements"][0]
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

    lineno, tokens = groups["one"][0]
    if len(tokens) != 1:
        raise ParseError(lineno, "section 'one' needs exactly one token")
    one, = resolve(lineno, tokens)

    lineno, tokens = groups["neg"][0]
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
        for lineno, tokens in rows:
            if len(tokens) != n:
                raise ParseError(lineno, "row needs %d tokens, got %d"
                                 % (n, len(tokens)))
            table.append(resolve(lineno, tokens))
        tables[key] = table
    return FiniteInRL(names, one, neg, tables["join"], tables["fusion"])


def emit(alg):
    """Canonical text for an algebra: fixed section order, single spaces."""
    names = alg.names
    lines = ["elements " + " ".join(names),
             "one " + names[alg.one],
             "neg " + " ".join(map(names.__getitem__, alg.neg))]
    for key, table in (("join", alg.join), ("fusion", alg.fusion)):
        for row in table:
            lines.append(key + " " + " ".join(map(names.__getitem__, row)))
    return "\n".join(lines) + "\n"


class GluingSpecFile(namedtuple("GluingSpecFile",
                                 "lower_ref upper_ref a b pairs")):
    """pairs: phi as (x name in lower, y name in upper)."""
    __slots__ = ()


def parse_gluing(text):
    groups = _grouped_lines(text, ("lower", "upper", "a", "b", "phi"))
    fields = {}
    for key in ("lower", "upper", "a", "b"):
        if key not in groups:
            raise ParseError(1, "missing section %r" % key)
        if len(groups[key]) > 1:
            raise ParseError(groups[key][1][0], "duplicate section %r" % key)
        lineno, tokens = groups[key][0]
        if len(tokens) != 1:
            raise ParseError(lineno, "section %r needs exactly one token"
                             % key)
        fields[key] = tokens[0]
    pairs = []
    for lineno, tokens in groups.get("phi", []):
        if len(tokens) != 3 or tokens[1] != "->":
            raise ParseError(lineno, "phi lines read 'phi x -> y'")
        pairs.append((tokens[0], tokens[2]))
    if not pairs:
        raise ParseError(1, "missing section 'phi'")
    return GluingSpecFile(fields["lower"], fields["upper"],
                          fields["a"], fields["b"], tuple(pairs))


def emit_gluing(spec_file):
    lines = ["lower " + spec_file.lower_ref,
             "upper " + spec_file.upper_ref,
             "a " + spec_file.a,
             "b " + spec_file.b]
    for x, y in spec_file.pairs:
        lines.append("phi %s -> %s" % (x, y))
    return "\n".join(lines) + "\n"


def load_algebra(path):
    """Load an algebra file, or glue a spec file by extension.

    A spec file and the files under it are read into a tree of Leaf and
    Node, depth first, lower before upper, from an explicit stack, so a
    chain of specs of any depth loads without recursion. A spec that refers
    back to a spec it is nested in raises ParseError. The tree is then glued
    in one pass: every algebra file under a spec must be a member and every
    spec must pass validate_gluing, or ValueError names the file; the glued
    result is then a member and is not checked again.
    """
    if path.endswith(".gspec"):   # only a spec leads on to other files
        from .gluing import Leaf, Node, _glue_tree
    labels = {}      # id of a part -> the file it was read from
    nested = set()   # real paths of the specs on the stack
    stack = []       # (path, real path, spec file, [read lower part])
    while True:
        real = os.path.realpath(path)
        if real in nested:
            raise ParseError(1, "circular reference through %s" % path)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(".gspec"):
            sf = parse_gluing(text)
            nested.add(real)
            stack.append((path, real, sf, []))
            path = os.path.join(os.path.dirname(real), sf.lower_ref)
            continue
        if not stack:
            return parse(text)
        part = Leaf(parse(text))
        labels[id(part)] = path
        # part is the upper part of every spec on top whose lower is read
        while stack and stack[-1][3]:
            spec_path, spec_real, sf, (lower,) = stack.pop()
            nested.remove(spec_real)
            part = Node(None, None, sf.a, sf.b, sf.pairs, lower, part)
            labels[id(part)] = "gluing spec " + spec_path
        if not stack:
            return _glue_tree(part, labels)
        _, spec_real, sf, read = stack[-1]
        read.append(part)
        path = os.path.join(os.path.dirname(spec_real), sf.upper_ref)


def write_tree(tree, outdir):
    """Write a decomposition tree as one file per leaf and per node.

    The root is named TREE_ROOT. A leaf at name p becomes p.rlat; a node
    becomes p.gspec referencing its children p0 and p1. Returns the list of
    (filename, kind) written, root first. Raises ValueError, and writes no
    file, when a name is longer than the directory can hold.
    """
    from .gluing import Leaf

    def fname(part, name):
        return name + (".rlat" if isinstance(part, Leaf) else ".gspec")

    os.makedirs(outdir, exist_ok=True)
    parts = list(tree._named(TREE_ROOT))
    # a name grows by one character per level: all are checked first
    limit = os.pathconf(outdir, "PC_NAME_MAX")
    if max(len(fname(*p)) for p in parts) > limit:     # ASCII names
        raise ValueError("tree too deep: its file names are longer than "
                         "the limit of %d bytes in %s" % (limit, outdir))
    written = []
    for part, name in parts:
        if isinstance(part, Leaf):
            kind, text = "leaf", emit(part.algebra)
        else:
            kind, text = "node", emit_gluing(GluingSpecFile(
                fname(part.lower, name + "0"), fname(part.upper, name + "1"),
                part.a, part.b, part.pairs))
        written.append((fname(part, name), kind))
        with open(os.path.join(outdir, written[-1][0]), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    return written


def _quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_export(alg, order):
    """DOT digraph of the Hasse covers of the chosen order."""
    if order == "lattice":
        covers = alg.lat_covers
    elif order == "monoidal":
        covers = alg.mon_covers
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
