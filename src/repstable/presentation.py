"""Quiver-with-relations presentations and path arithmetic.

Paths are stored in application order: the first arrow of the word acts
first.  The relation keyword form ``zero a b`` therefore declares that the
composite "a, then b" vanishes.  All values are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class ParseError(Exception):
    """Parser failure with a position; formats as ``line:col: reason``."""

    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__("%d:%d: %s" % (line, col, reason))


class PresentationError(Exception):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: dict  # name -> Arrow

    def arrows_out(self, v: str):
        return [a for a in self.arrows.values() if a.source == v]

    def arrows_in(self, v: str):
        return [a for a in self.arrows.values() if a.target == v]

    def sorted_arrows(self):
        return [self.arrows[n] for n in sorted(self.arrows)]

    def has_oriented_cycle(self) -> bool:
        color = {v: 0 for v in self.vertices}
        succ = {v: [] for v in self.vertices}
        for a in self.arrows.values():
            succ[a.source].append(a.target)

        def visit(v):
            color[v] = 1
            for w in succ[v]:
                if color[w] == 1:
                    return True
                if color[w] == 0 and visit(w):
                    return True
            color[v] = 2
            return False

        return any(color[v] == 0 and visit(v) for v in self.vertices)


@dataclass(frozen=True)
class PathWord:
    """A composable word of arrow names; the empty word is the idempotent
    at its source vertex."""

    source: str
    arrows: tuple

    def __len__(self):
        return len(self.arrows)

    def target(self, quiver: Quiver) -> str:
        return quiver.arrows[self.arrows[-1]].target if self.arrows else self.source

    def prefix(self, k: int) -> "PathWord":
        return PathWord(self.source, self.arrows[:k])

    def suffix(self, k: int, quiver: Quiver) -> "PathWord":
        if k == 0:
            return PathWord(self.target(quiver), ())
        src = quiver.arrows[self.arrows[-k]].source
        return PathWord(src, self.arrows[-k:])

    def __str__(self):
        return "*".join(self.arrows) if self.arrows else "e(%s)" % self.source


@dataclass(frozen=True)
class RelationGen:
    """Monomial relation (one vanishing path) or binomial relation, the
    difference of two distinct parallel paths."""

    kind: str  # "monomial" | "binomial"
    path: PathWord
    other: Optional[PathWord] = None

    def __str__(self):
        if self.kind == "monomial":
            return str(self.path)
        return "%s - %s" % (self.path, self.other)


@dataclass(frozen=True)
class NormalForm:
    """Either zero, or a reduced basis path."""

    is_zero: bool
    path: Optional[PathWord] = None


class AlgebraPresentation:
    """A quiver with monomial/binomial relations and a nilpotency bound."""

    def __init__(self, quiver: Quiver, relations: list,
                 nilpotency: Optional[int] = None):
        if nilpotency is None:
            if quiver.has_oriented_cycle():
                raise PresentationError(
                    "missing nilpotency bound: the quiver has an oriented cycle")
            # Unused for acyclic quivers: no path has more arrows than vertices.
            nilpotency = max(10, len(quiver.vertices) + 2,
                             2 + max((len(r.path) for r in relations), default=0))
        self.quiver = quiver
        self.relations = tuple(relations)
        self.nilpotency = nilpotency
        for rel in relations:
            self._check_composable(rel.path)
            if rel.kind == "binomial":
                self._check_composable(rel.other)
                if (rel.path.source != rel.other.source
                        or rel.path.target(quiver) != rel.other.target(quiver)):
                    raise PresentationError(
                        "binomial sides are not parallel: %s" % rel)
                if rel.path.arrows == rel.other.arrows:
                    raise PresentationError(
                        "binomial sides are identical: %s" % rel)
        # Vertex -> indices of the relations whose paths start there.
        self.relations_from = {}
        for i, rel in enumerate(self.relations):
            self.relations_from.setdefault(rel.path.source, []).append(i)
        self._monomials = tuple(sorted(
            r.path.arrows for r in relations if r.kind == "monomial"))
        # Oriented rewrites: larger side (graded, then lexicographic) maps to
        # the smaller one.  On the supported class this system is confluent.
        rw = {}
        for r in relations:
            if r.kind != "binomial":
                continue
            a, b = r.path.arrows, r.other.arrows
            big, small = (a, b) if (len(a), a) > (len(b), b) else (b, a)
            rw[big] = small
        self._rewrites = rw
        # Subwords no string may contain in a direct run: the vanishing
        # paths and both sides of every binomial relation.
        self.forbidden_subwords = frozenset(
            side.arrows for r in relations
            for side in ((r.path,) if r.kind == "monomial"
                         else (r.path, r.other)))
        self._basis_cache = None

    # -- construction helpers -------------------------------------------

    def _check_composable(self, p: PathWord):
        q = self.quiver
        if p.source not in q.vertices:
            raise PresentationError("unknown vertex %r in path" % p.source)
        at = p.source
        for name in p.arrows:
            if name not in q.arrows:
                raise PresentationError("unknown arrow %r in path" % name)
            a = q.arrows[name]
            if a.source != at:
                raise PresentationError(
                    "non-composable relation path %s at arrow %s" % (p, name))
            at = a.target

    # -- normal forms ----------------------------------------------------

    def _hits_monomial(self, arrows: tuple) -> bool:
        for m in self._monomials:
            k = len(m)
            if k <= len(arrows):
                for i in range(len(arrows) - k + 1):
                    if arrows[i:i + k] == m:
                        return True
        return False

    def path_normal_form(self, p: PathWord) -> NormalForm:
        """Reduce a path modulo the relation ideal to zero or a canonical
        basis path."""
        self._check_composable(p)
        arrows = p.arrows
        steps = 0
        limit = 4 * (self.nilpotency + len(arrows) + 4)
        while True:
            if len(arrows) >= self.nilpotency:
                return NormalForm(True)
            if self._hits_monomial(arrows):
                return NormalForm(True)
            changed = False
            for big, small in sorted(self._rewrites.items()):
                k = len(big)
                for i in range(len(arrows) - k + 1):
                    if arrows[i:i + k] == big:
                        arrows = arrows[:i] + small + arrows[i + k:]
                        changed = True
                        break
                if changed:
                    break
            if not changed:
                # Rewrites replace subwords by parallel paths, so endpoints
                # are preserved throughout the reduction.
                return NormalForm(False, PathWord(p.source, arrows))
            steps += 1
            if steps > limit:
                raise PresentationError(
                    "path reduction did not terminate within the nilpotency "
                    "bound; unsupported presentation")

    def is_nonzero(self, p: PathWord) -> bool:
        return not self.path_normal_form(p).is_zero

    def path_basis(self) -> list:
        """All paths in normal form (finite by the nilpotency bound)."""
        if self._basis_cache is not None:
            return self._basis_cache
        basis = []
        frontier = [PathWord(v, ()) for v in sorted(self.quiver.vertices)]
        seen = set()
        while frontier:
            nxt = []
            for p in frontier:
                key = (p.source, p.arrows)
                if key in seen:
                    continue
                seen.add(key)
                basis.append(p)
                at = p.target(self.quiver)
                for a in sorted(self.quiver.arrows_out(at), key=lambda a: a.name):
                    q = PathWord(p.source, p.arrows + (a.name,))
                    nf = self.path_normal_form(q)
                    if not nf.is_zero and nf.path.arrows == q.arrows:
                        nxt.append(q)
            frontier = nxt
        basis.sort(key=lambda p: (len(p), p.source, p.arrows))
        self._basis_cache = basis
        return basis

    # -- serialization ---------------------------------------------------

    def pretty(self) -> str:
        lines = ["vertices " + " ".join(sorted(self.quiver.vertices))]
        for a in self.quiver.sorted_arrows():
            lines.append("arrow %s : %s -> %s" % (a.name, a.source, a.target))
        rels = sorted(self.relations, key=lambda r: (r.kind, str(r)))
        for r in rels:
            if r.kind == "monomial":
                lines.append("zero " + " ".join(r.path.arrows))
            else:
                lines.append("equal %s , %s" % (
                    " ".join(r.path.arrows), " ".join(r.other.arrows)))
        lines.append("nilpotent %d" % self.nilpotency)
        return "\n".join(lines) + "\n"


# -- parsing --------------------------------------------------------------

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz"
               "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@.")


def _check_name(tok: str, line_no: int, col: int):
    if not tok or any(ch not in _NAME_OK for ch in tok):
        raise ParseError(line_no, col, "invalid name %r" % tok)


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse the line-oriented presentation DSL.

    Grammar (one declaration per line, ``#`` starts a comment)::

        vertices <name>+
        arrow <name> : <vertex> -> <vertex>
        zero <arrow>+
        equal <arrow>+ , <arrow>+
        nilpotent <N>
    """
    vertices: list = []
    arrows: dict = {}
    relation_specs = []
    nilpotency = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = line.split()
        col = len(raw) - len(raw.lstrip()) + 1
        head = toks[0]
        if head == "vertices":
            if len(toks) == 1:
                raise ParseError(line_no, col, "vertices: need at least one name")
            for t in toks[1:]:
                _check_name(t, line_no, col)
                if t not in vertices:
                    vertices.append(t)
        elif head == "arrow":
            if len(toks) != 6 or toks[2] != ":" or toks[4] != "->":
                raise ParseError(line_no, col,
                                 "expected: arrow <name> : <vertex> -> <vertex>")
            name, src, tgt = toks[1], toks[3], toks[5]
            for t in (name, src, tgt):
                _check_name(t, line_no, col)
            if name in arrows:
                raise ParseError(line_no, col, "duplicate arrow name %r" % name)
            if src not in vertices:
                raise ParseError(line_no, col, "unknown vertex %r" % src)
            if tgt not in vertices:
                raise ParseError(line_no, col, "unknown vertex %r" % tgt)
            arrows[name] = Arrow(name, src, tgt)
        elif head == "zero":
            if len(toks) < 2:
                raise ParseError(line_no, col, "zero: need at least one arrow")
            relation_specs.append((line_no, col, "monomial", toks[1:], None))
        elif head == "equal":
            rest = toks[1:]
            if "," not in rest:
                raise ParseError(line_no, col, "equal: missing ',' separator")
            i = rest.index(",")
            lhs, rhs = rest[:i], rest[i + 1:]
            if not lhs or not rhs:
                raise ParseError(line_no, col, "equal: need paths on both sides")
            relation_specs.append((line_no, col, "binomial", lhs, rhs))
        elif head == "nilpotent":
            if len(toks) != 2 or not toks[1].isdigit() or int(toks[1]) < 1:
                raise ParseError(line_no, col, "nilpotent: need a positive integer")
            nilpotency = int(toks[1])
        else:
            raise ParseError(line_no, col, "unknown declaration %r" % head)

    quiver = Quiver(tuple(vertices), arrows)

    def build_path(names, line_no, col) -> PathWord:
        for n in names:
            if n not in arrows:
                raise ParseError(line_no, col, "unknown arrow %r in relation" % n)
        src = arrows[names[0]].source
        at = src
        for n in names:
            if arrows[n].source != at:
                raise ParseError(line_no, col,
                                 "non-composable relation path at arrow %r" % n)
            at = arrows[n].target
        return PathWord(src, tuple(names))

    relations = []
    for line_no, col, kind, lhs, rhs in relation_specs:
        p = build_path(lhs, line_no, col)
        if kind == "monomial":
            relations.append(RelationGen("monomial", p))
        else:
            q = build_path(rhs, line_no, col)
            if p.source != q.source or p.target(quiver) != q.target(quiver):
                raise ParseError(line_no, col, "binomial sides are not parallel")
            relations.append(RelationGen("binomial", p, q))

    try:
        return AlgebraPresentation(quiver, relations, nilpotency)
    except PresentationError as exc:
        raise ParseError(0, 0, str(exc))


# -- gentleness ------------------------------------------------------------

@dataclass
class GentleReport:
    is_gentle: bool
    violations: list = field(default_factory=list)

    def add(self, clause: str, detail: str):
        self.is_gentle = False
        self.violations.append((clause, detail))

    def __str__(self):
        if self.is_gentle:
            return "gentle: yes"
        lines = ["gentle: no"]
        for clause, detail in self.violations:
            lines.append("  violated %r: %s" % (clause, detail))
        return "\n".join(lines)


def validate_gentle(pres: AlgebraPresentation) -> GentleReport:
    """Check the defining clauses of a gentle presentation and report every
    violated one; a failing check is a report, not an error."""
    q = pres.quiver
    report = GentleReport(True)

    for v in sorted(q.vertices):
        outs = q.arrows_out(v)
        ins = q.arrows_in(v)
        if len(outs) > 2:
            report.add("at most two arrows out",
                       "vertex %s has out-arrows %s" % (v, sorted(a.name for a in outs)))
        if len(ins) > 2:
            report.add("at most two arrows in",
                       "vertex %s has in-arrows %s" % (v, sorted(a.name for a in ins)))

    mono2 = set()
    for r in pres.relations:
        if r.kind == "binomial":
            report.add("no binomial relations", "relation %s" % r)
        elif len(r.path) != 2:
            report.add("monomial relations have length 2", "relation %s" % r)
        else:
            mono2.add(r.path.arrows)

    for a in sorted(q.arrows.values(), key=lambda a: a.name):
        succ_zero = [c.name for c in q.arrows_out(a.target)
                     if (a.name, c.name) in mono2]
        succ_nonzero = [c.name for c in q.arrows_out(a.target)
                        if (a.name, c.name) not in mono2]
        if len(succ_zero) > 1:
            report.add("at most one vanishing continuation",
                       "arrow %s continued by %s" % (a.name, succ_zero))
        if len(succ_nonzero) > 1:
            report.add("at most one nonvanishing continuation",
                       "arrow %s continued by %s" % (a.name, succ_nonzero))
        pred_zero = [c.name for c in q.arrows_in(a.source)
                     if (c.name, a.name) in mono2]
        pred_nonzero = [c.name for c in q.arrows_in(a.source)
                        if (c.name, a.name) not in mono2]
        if len(pred_zero) > 1:
            report.add("at most one vanishing predecessor",
                       "arrow %s preceded by %s" % (a.name, pred_zero))
        if len(pred_nonzero) > 1:
            report.add("at most one nonvanishing predecessor",
                       "arrow %s preceded by %s" % (a.name, pred_nonzero))

    return report
