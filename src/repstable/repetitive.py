"""Finite-degree windows of the repetitive quiver of a gentle algebra.

The repetitive quiver has one copy of the base quiver in every degree,
plus one connector arrow per maximal path ``p`` (a basis element of the
two-sided socle), running from the target of ``p`` in degree ``z`` to the
source of ``p`` in degree ``z + 1``.  The relation families are generated
so that paths through a connector realize dual-basis functionals: a path
``x, conn_p, y`` is nonzero exactly when ``x`` is a suffix and ``y`` a
prefix of ``p`` with combined length at most ``len(p)``, and equal such
values are identified by binomial relations.  Windows of different sizes
agree on their overlap by construction.
"""

from __future__ import annotations

from .presentation import (
    AlgebraPresentation,
    Arrow,
    PathWord,
    PresentationError,
    Quiver,
    RelationGen,
    validate_gentle,
)
from . import linalg, modules


class WindowError(Exception):
    pass


def maximal_paths(pres: AlgebraPresentation) -> list:
    """Basis of the two-sided socle of a gentle presentation: the nonzero
    paths admitting no nonzero extension on either side, including the
    trivial path at any isolated vertex."""
    q = pres.quiver
    result = []
    for v in sorted(q.vertices):
        if not q.arrows_out(v) and not q.arrows_in(v):
            result.append(PathWord(v, ()))

    def extend(path: PathWord) -> PathWord:
        # Grow on the right while some arrow keeps the path nonzero (the
        # first by name), then on the left.
        for right in (True, False):
            grown = True
            while grown:
                grown = False
                ends = (q.arrows_out(path.target(q)) if right
                        else q.arrows_in(path.source))
                for c in sorted(ends, key=lambda a: a.name):
                    ext = (PathWord(path.source, path.arrows + (c.name,))
                           if right else
                           PathWord(c.source, (c.name,) + path.arrows))
                    if pres.is_nonzero(ext):
                        path, grown = ext, True
                        break
                if len(path) >= pres.nilpotency:
                    raise PresentationError(
                        "maximal path search exceeded the nilpotency bound")
        return path

    covered = set()
    for a in sorted(q.arrows.values(), key=lambda a: a.name):
        if a.name in covered:
            continue
        p = extend(PathWord(a.source, (a.name,)))
        covered.update(p.arrows)
        result.append(p)
    result.sort(key=lambda p: (p.source, p.arrows))
    return result


class RepetitiveWindow:
    """Degrees ``lo..hi`` of the repetitive quiver with relations, plus the
    vertex-degree map.  Built by :func:`build_repetitive_window`.

    A window is never changed after it is built, so what is derived from
    it is computed once and kept in its one memo, :meth:`derived`: the
    enlarged windows (:meth:`enlarged`), the projective words
    (``strings.projective_words``) and, through :meth:`cached_modules`, the
    projectives, string modules, decomposition candidates and injective
    hulls.  Modules are kept as payloads (dimensions, action matrices,
    ``meta``), never as module objects, and each lookup wraps them in fresh
    :class:`modules.GradedModule` objects; a hull keeps the embedding's
    blocks as plain matrices in its ``meta``.
    No memo value refers to this window or to a module: a module refers to
    its window, so a kept module would close a reference cycle (window,
    memo, module, window) and keep every window alive, memo and all, until
    the cyclic garbage collector runs.  For the same reason an enlarged
    window does not refer back to the window it was enlarged from.
    """

    def __init__(self, base: AlgebraPresentation, lo: int, hi: int):
        report = validate_gentle(base)
        if not report.is_gentle:
            raise WindowError("base presentation is not gentle:\n%s" % report)
        if hi - lo + 1 < 3:
            raise WindowError("window must span at least 3 degrees")
        self.base = base
        self.lo = lo
        self.hi = hi
        self.maximal = tuple(maximal_paths(base))
        self._conn_base = {}
        for p in self.maximal:
            tag = p.arrows[0] if p.arrows else p.source
            self._conn_base[(p.source, p.arrows)] = "hat_%s" % tag
        self._build()
        self._derived = {}

    # -- naming ----------------------------------------------------------

    def vname(self, v: str, z: int) -> str:
        return "%s@%d" % (v, z)

    def aname(self, a: str, z: int) -> str:
        return "%s@%d" % (a, z)

    def conn_name(self, p: PathWord, z: int) -> str:
        return "%s@%d" % (self._conn_base[(p.source, p.arrows)], z)

    def vertex_info(self, vn: str):
        """(base vertex, degree) of a window vertex name."""
        v, z = vn.rsplit("@", 1)
        return v, int(z)

    def degree(self, vn: str) -> int:
        return self.vertex_info(vn)[1]

    def vertex_sort_key(self, vn: str):
        v, z = self.vertex_info(vn)
        return (z, v)

    def sorted_vertices(self) -> list:
        return sorted(self.presentation.quiver.vertices, key=self.vertex_sort_key)

    def is_interior(self, vn: str) -> bool:
        return self.lo < self.degree(vn) < self.hi

    # -- construction ----------------------------------------------------

    def _lift(self, p: PathWord, z: int) -> PathWord:
        return PathWord(self.vname(p.source, z),
                        tuple(self.aname(a, z) for a in p.arrows))

    def _build(self):
        base_q = self.base.quiver
        vertices = [self.vname(v, z) for z in range(self.lo, self.hi + 1)
                    for v in sorted(base_q.vertices)]
        arrows = {}
        for z in range(self.lo, self.hi + 1):
            for a in base_q.sorted_arrows():
                an = self.aname(a.name, z)
                arrows[an] = Arrow(an, self.vname(a.source, z),
                                   self.vname(a.target, z))
        for z in range(self.lo, self.hi):
            for p in self.maximal:
                cn = self.conn_name(p, z)
                if cn in arrows:
                    raise WindowError(
                        "connector name %s collides with an arrow copy; "
                        "rename the base arrows" % cn)
                arrows[cn] = Arrow(cn, self.vname(p.target(base_q), z),
                                   self.vname(p.source, z + 1))

        quiver = Quiver(tuple(vertices), arrows)
        self.table = modules.QuiverTable(quiver, vertices)
        self.base_table = modules.QuiverTable(base_q, sorted(base_q.vertices))
        relations = []

        def conn_word(p, z):
            return (self.conn_name(p, z),)

        def monomial(src_vertex, arrow_names):
            relations.append(RelationGen(
                "monomial", PathWord(src_vertex, tuple(arrow_names))))

        for z in range(self.lo, self.hi + 1):
            # validate_gentle admits only monomial base relations.
            for r in self.base.relations:
                relations.append(RelationGen("monomial",
                                             self._lift(r.path, z)))

        for z in range(self.lo, self.hi):
            for p in self.maximal:
                t = p.target(base_q)
                s = p.source
                last = p.arrows[-1] if p.arrows else None
                first = p.arrows[0] if p.arrows else None
                # Wrong entry into the connector.
                for b in sorted(base_q.arrows_in(t), key=lambda a: a.name):
                    if b.name != last:
                        monomial(self.vname(b.source, z),
                                 (self.aname(b.name, z),) + conn_word(p, z))
                # Wrong exit from the connector.
                if z + 1 <= self.hi:
                    for c in sorted(base_q.arrows_out(s), key=lambda a: a.name):
                        if c.name != first:
                            monomial(self.vname(t, z),
                                     conn_word(p, z) + (self.aname(c.name, z + 1),))
                # Overlapping suffix/prefix windows of the spiral of p.
                for a_len in range(1, len(p) + 1):
                    x = p.suffix(a_len, base_q)
                    y = p.prefix(len(p) + 1 - a_len)
                    word = (self._lift(x, z).arrows + conn_word(p, z)
                            + self._lift(y, z + 1).arrows)
                    monomial(self.vname(x.source, z), word)

        # Paths crossing two connectors vanish identically.
        for z in range(self.lo, self.hi - 1):
            for p in self.maximal:
                for q in self.maximal:
                    for k in range(0, len(p) + 1):
                        y = p.prefix(k)
                        if len(y) > len(q):
                            continue
                        if k == 0:
                            if q.target(base_q) != p.source:
                                continue
                        elif q.arrows[len(q) - k:] != y.arrows:
                            continue
                        word = (conn_word(p, z) + self._lift(y, z + 1).arrows
                                + conn_word(q, z + 1))
                        monomial(self.vname(p.target(base_q), z), word)

        # Identifications between the at most two realizations of each
        # socle functional.
        self._realizations = {}
        for v in sorted(base_q.vertices):
            realizations = []
            for p in self.maximal:
                at = p.source
                for k in range(0, len(p) + 1):
                    if at == v:
                        realizations.append((p, k))
                    if k < len(p):
                        at = base_q.arrows[p.arrows[k]].target
            self._realizations[v] = realizations
            if len(realizations) > 2:
                raise WindowError(
                    "more than two socle positions at vertex %s; "
                    "not special biserial" % v)
        for z in range(self.lo, self.hi):
            for v in sorted(base_q.vertices):
                if len(self._realizations[v]) == 2:
                    relations.append(RelationGen("binomial",
                                                 *self.socle_paths(v, z)))

        max_len = max((len(p) for p in self.base.path_basis()), default=0)
        self.presentation = AlgebraPresentation(
            quiver, relations, nilpotency=2 * max_len + 4)

    # -- derived data ----------------------------------------------------

    def socle_paths(self, v: str, z: int) -> list:
        """The maximal paths out of window vertex ``(v, z)``, one per
        realization ``(p, k)`` of a socle functional at ``v``: the lifted
        suffix of ``p`` from position ``k``, the connector of ``p``, then
        the lifted prefix of length ``k`` in degree ``z + 1``.  They end in
        the socle of the projective at ``(v, z)``; where there are two, a
        binomial relation identifies them."""
        base_q = self.base.quiver
        return [PathWord(self.vname(v, z),
                         self._lift(p.suffix(len(p) - k, base_q), z).arrows
                         + (self.conn_name(p, z),)
                         + self._lift(p.prefix(k), z + 1).arrows)
                for p, k in self._realizations[v]]

    def derived(self, key, build):
        """What ``build()`` returns, computed once per ``key`` and kept on
        this window; the value must not refer to this window or to a
        module."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def enlarged(self) -> "RepetitiveWindow":
        """The window with two more degrees on both sides; one per window,
        so its memo is shared by every caller."""
        return self.derived("enlarged", lambda: RepetitiveWindow(
            self.base, self.lo - 2, self.hi + 2))

    def cached_modules(self, key, field, build) -> list:
        """The modules that ``build()`` returns, validated modules of this
        window over ``field``, built once per ``key`` and ``field``.  Only
        their payloads are kept (for an injective hull, its dimensions and
        actions and the embedding's blocks); every call returns fresh
        modules."""
        payloads = self.derived((key, field), lambda: [
            (m.dims, m.acts, m.meta) for m in build()])
        return [modules.GradedModule(self, field, *p) for p in payloads]

    def projective(self, v: str, z: int, field) -> "modules.GradedModule":
        """The indecomposable projective(-injective) at window vertex
        ``(v, z)``, built by :meth:`_build_projective` once per field.  It
        is at the same time the injective hull of the simple at
        ``(v, z + 1)``, its simple socle."""
        return self.cached_modules(
            ("projective", v, z), field,
            lambda: [self._build_projective(v, z, field)])[0]

    def _build_projective(self, v: str, z: int, field):
        """The projective at ``(v, z)`` read off its socle paths.  Its basis
        is the set of nonzero paths out of ``(v, z)``, the prefixes of the
        socle paths, in ``(len, arrows)`` order; of two socle paths the
        smaller by ``(len, arrows)`` is the basis path, the side the
        window's binomial relation keeps, and the other is identified with
        it.  So every window relation holds by construction.  ``meta``
        holds the top ``(v, z)`` (``"projective"``), the basis paths
        (``"basis"``) and their targets (``"positions"``), and the socle
        basis position ``(vertex, index)`` (``"socle"``), certified here to
        span the module's socle."""
        if not (self.lo <= z and z + 1 <= self.hi):
            raise WindowError("degree %d (and %d) must lie in the window"
                              % (z, z + 1))
        quiver = self.presentation.quiver
        paths = sorted(self.socle_paths(v, z),
                       key=lambda p: (len(p), p.arrows))
        kept = paths[0]
        basis = sorted({p.prefix(k) for p in paths for k in range(len(p))}
                       | {kept}, key=lambda p: (len(p), p.arrows))
        dims = {}
        pos = {}           # basis path -> its index at its target
        for p in basis:
            t = p.target(quiver)
            pos[p] = dims.get(t, 0)
            dims[t] = pos[p] + 1
        acts = {an: linalg.zeros(field, dims[a.target], dims[a.source])
                for an, a in quiver.arrows.items()
                if a.source in dims and a.target in dims}
        for p in paths:
            for k, an in enumerate(p.arrows):
                i = pos.get(p.prefix(k + 1), pos[kept])
                acts[an][i][pos[p.prefix(k)]] = field.one()
        sv, index = kept.target(quiver), pos[kept]
        mod = modules.GradedModule(self, field, dims, acts,
                                   meta={"projective": (v, z),
                                         "basis": tuple(basis),
                                         "positions": [p.target(quiver)
                                                       for p in basis],
                                         "socle": (sv, index)})
        mod.validate()
        soc, soc_incl = modules.socle(mod)
        unit = [[field.one() if i == index else field.zero()]
                for i in range(dims[sv])]
        if soc.dims != {sv: 1} or soc_incl.blocks[sv] != unit:
            raise WindowError("the socle of the projective at %s is not "
                              "spanned by its socle path"
                              % self.vname(v, z))
        return mod

    def all_projectives(self, field) -> list:
        return [self.projective(v, z, field)
                for z in range(self.lo, self.hi)
                for v in sorted(self.base.quiver.vertices)]

    # -- serialization ---------------------------------------------------

    def serialize(self):
        """(presentation DSL text, degree sidecar text)."""
        sidecar_lines = ["%s %d" % (vn, self.degree(vn))
                         for vn in self.sorted_vertices()]
        return self.presentation.pretty(), "\n".join(sidecar_lines) + "\n"


def build_repetitive_window(pres: AlgebraPresentation, lo: int,
                            hi: int) -> RepetitiveWindow:
    return RepetitiveWindow(pres, lo, hi)


def parse_window(base: AlgebraPresentation, sidecar_text: str) -> RepetitiveWindow:
    """Rebuild a window from its degree sidecar; the round-trip contract is
    checked by re-serializing."""
    degrees = []
    for line in sidecar_text.splitlines():
        line = line.strip()
        if not line:
            continue
        _, z = line.rsplit(" ", 1)
        degrees.append(int(z))
    if not degrees:
        raise WindowError("empty degree sidecar")
    return build_repetitive_window(base, min(degrees), max(degrees))


def _check_projective(phat):
    if phat.meta is None or "projective" not in phat.meta:
        raise WindowError("input is not an indecomposable window projective")


def _unit_rows_except(m, vertex, index):
    """Per vertex, the unit coordinate rows of every basis position of
    ``m`` except position ``index`` at ``vertex``."""
    one, zero = m.field.one(), m.field.zero()
    return {v: [[one if i == k else zero for i in range(d)]
                for k in range(d) if (v, k) != (vertex, index)]
            for v, d in m.dims.items()}


def radical_of_projective(phat: "modules.GradedModule"):
    """The radical of an indecomposable window projective together with its
    inclusion: every basis path but the trivial one, which comes first at
    the top vertex."""
    _check_projective(phat)
    top = phat.win.vname(*phat.meta["projective"])
    rows = _unit_rows_except(phat, top, 0)
    sub, incl = modules.submodule(
        phat, {v: linalg.transpose(phat.field, r) for v, r in rows.items()})
    sub.validate()
    incl.validate()
    return sub, incl


def quotient_by_socle(phat: "modules.GradedModule"):
    """The quotient of a window projective by its simple socle, the basis
    position ``meta["socle"]`` certified when the projective was built,
    with the natural projection."""
    _check_projective(phat)
    quot, proj = modules.quotient(
        phat, _unit_rows_except(phat, *phat.meta["socle"]))
    quot.validate()
    proj.validate()
    return quot, proj
