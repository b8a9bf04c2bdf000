"""Exact linear algebra over quiver representations.

A representation is stored as one exact matrix per arrow, acting
column-on-the-right, so the matrix of a path is the product of its arrow
matrices in reverse application order.  Morphisms are vertex-indexed block
families commuting with every arrow action.  Everything is immutable after
construction and all functions are pure.

Design rules; new code uses these shared paths instead of copying them:

- :class:`RepView` is the one representation type.  A window module
  (:class:`GradedModule`) is a RepView that also knows its window, and a
  degree slice (:meth:`GradedModule.slice_view`, :meth:`ModuleMorphism.slice`)
  is a RepView of the base quiver, so every algorithm here runs on both.
- Every question "is there a morphism X with  ΣL∘X + ΣX∘R = rhs", each
  unknown commuting, is one call of :func:`solve_morphisms`; Hom spaces
  come from :func:`hom_basis`.  Both run on :class:`MorphismSystem`, whose
  variable layout (vertex order, then row-major block entries) fixes every
  basis and every particular solution.
- Every sub- or quotient module given by a basis is built by
  :func:`submodule` or :func:`quotient`, and every direct sum by
  :func:`direct_sum`.
- What is derived from a window is kept in its one memo
  (``RepetitiveWindow.derived``), which holds the dimensions, actions and
  ``meta`` of modules, never modules (``RepetitiveWindow.cached_modules``):
  a module refers to its window, so a kept module would make a reference
  cycle that only the cyclic garbage collector frees, window and memo with
  it.  Injective hulls are kept the same way, keyed by the data of the
  module they embed, with the embedding's blocks as plain matrices.
- A window projective carries its socle basis position in
  ``meta["socle"]``, certified when it is built; its readers take the
  socle from there instead of computing it again.
- Every decision is exact and deterministic; nothing is sampled.
  Isomorphism and summand tests search a Hom basis for an invertible
  element, which decides them when one side is indecomposable: its
  endomorphism ring is local (Fitting's lemma), so the non-invertible maps
  form a proper subspace that no basis fits in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import linalg
from .presentation import PathWord


class ModuleError(Exception):
    pass


class DecomposeError(Exception):
    """Raised when no candidate is a summand of what is left to decompose;
    carries whatever was peeled so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


class QuiverTable:
    """The vertices of one quiver, in the order that lays out every linear
    system over it, and its arrows sorted by name, also grouped by source.
    Built once per quiver and shared by every representation of it."""

    def __init__(self, quiver, vertices):
        self.quiver = quiver
        self.vertices = tuple(vertices)
        self.position = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = tuple(quiver.sorted_arrows())
        self.arrows_from = {}
        for a in self.arrows:
            self.arrows_from.setdefault(a.source, []).append(a)


class RepView:
    """A representation of the quiver of ``table`` over an exact field:
    vertex dimensions and arrow matrices, zero spaces and the matrices
    touching them omitted."""

    def __init__(self, table: QuiverTable, fieldobj, dims: dict, acts: dict):
        self.table = table
        self.field = fieldobj
        self.dims = {v: d for v, d in dims.items() if d > 0}
        arrows = table.quiver.arrows
        self.acts = {an: m for an, m in acts.items()
                     if m is not None
                     and self.dims.get(arrows[an].source, 0)
                     and self.dims.get(arrows[an].target, 0)}
        self._key = None

    def dim(self, v: str) -> int:
        return self.dims.get(v, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def sorted_support(self) -> list:
        return sorted(self.dims, key=self.table.position.__getitem__)

    def support_arrows(self):
        """The arrows starting in the support, by source vertex."""
        arrows_from = self.table.arrows_from
        return [a for v in self.dims for a in arrows_from.get(v, ())]

    def act(self, name: str):
        m = self.acts.get(name)
        if m is None:
            arr = self.table.quiver.arrows[name]
            return linalg.zeros(self.field, self.dim(arr.target),
                                self.dim(arr.source))
        return m

    def eval_path(self, p: PathWord):
        """Matrix of a path acting on this representation; the zero matrix,
        without products, when an arrow of the path acts by zero."""
        acts = self.acts
        if not p.arrows:
            return linalg.identity(self.field, self.dim(p.source))
        if not all(an in acts for an in p.arrows):
            return linalg.zeros(self.field,
                                self.dim(p.target(self.table.quiver)),
                                self.dim(p.source))
        m = acts[p.arrows[0]]
        for an in p.arrows[1:]:
            m = linalg.mat_mul(self.field, acts[an], m)
        return m

    def key(self):
        """Identity of the data, orderable in every characteristic."""
        if self._key is None:
            fkey = self.field.order_key
            dims = tuple(sorted(self.dims.items()))
            acts = tuple(sorted(
                (an, tuple(tuple(fkey(x) for x in row) for row in m))
                for an, m in self.acts.items()
                if m and m[0]))
            self._key = (dims, acts, repr(self.field))
        return self._key


class GradedModule(RepView):
    """Finitely supported representation of a repetitive window: a RepView
    of the window quiver that knows its window and carries construction
    ``meta`` data."""

    def __init__(self, win, fieldobj, dims: dict, acts: dict, meta=None):
        super().__init__(win.table, fieldobj, dims, acts)
        self.win = win
        self.meta = meta

    def support_degrees(self) -> list:
        return sorted({self.win.degree(v) for v in self.dims})

    def validate(self):
        q = self.table.quiver
        for v in self.dims:
            if v not in q.vertices:
                raise ModuleError("unknown window vertex %r" % v)
        for an, m in self.acts.items():
            arr = q.arrows[an]
            want = (self.dim(arr.target), self.dim(arr.source))
            if linalg.shape(m) != want:
                raise ModuleError("matrix for %s has shape %s, want %s"
                                  % (an, linalg.shape(m), want))
        # A path from a zero space acts by an empty matrix, so only the
        # relations starting in the support are checked, in their order.
        pres = self.win.presentation
        for i in sorted(i for v in self.dims
                        for i in pres.relations_from.get(v, ())):
            rel = pres.relations[i]
            if rel.kind == "monomial":
                if not linalg.is_zero(self.eval_path(rel.path)):
                    raise ModuleError("monomial relation %s violated" % rel)
            else:
                diff = linalg.mat_sub(self.eval_path(rel.path),
                                      self.eval_path(rel.other))
                if not linalg.is_zero(diff):
                    raise ModuleError("binomial relation %s violated" % rel)
        return self

    def slice_view(self, z: int) -> RepView:
        """The degree-``z`` part as a representation of the base quiver."""
        win = self.win
        table = win.base_table
        return RepView(table, self.field,
                       {v: self.dim(win.vname(v, z)) for v in table.vertices},
                       {a.name: self.acts.get(win.aname(a.name, z))
                        for a in table.arrows})


def simple_module(win, fieldobj, vname: str) -> GradedModule:
    return GradedModule(win, fieldobj, {vname: 1}, {})


def reembed(m: GradedModule, new_win) -> GradedModule:
    """The same data over a larger window (vertex names are absolute)."""
    out = GradedModule(new_win, m.field, dict(m.dims), dict(m.acts),
                       meta=m.meta)
    out.validate()
    return out


class ModuleMorphism:
    def __init__(self, source: RepView, target: RepView, blocks: dict):
        self.source = source
        self.target = target
        norm = {}
        for v, b in blocks.items():
            r, c = target.dim(v), source.dim(v)
            if not r or not c:
                continue
            if linalg.shape(b) != (r, c):
                # Degenerate shapes from zero-dimensional intermediates are
                # always zero in content; restore the true shape.
                if not linalg.is_zero(b):
                    raise ModuleError("block at %s has shape %s, want %s"
                                      % (v, linalg.shape(b), (r, c)))
                b = linalg.zeros(source.field, r, c)
            norm[v] = b
        self.blocks = norm

    def block(self, v: str):
        b = self.blocks.get(v)
        if b is None:
            return linalg.zeros(self.source.field, self.target.dim(v),
                                self.source.dim(v))
        return b

    def validate(self):
        if self.source.table is not self.target.table:
            raise ModuleError("morphism endpoints live on different quivers")
        f = self.source.field
        for a in self.source.support_arrows():
            # Both composites are empty unless the arrow also ends in the
            # target's support.
            if not self.target.dim(a.target):
                continue
            lhs = linalg.mat_mul(f, self.block(a.target), self.source.act(a.name))
            rhs = linalg.mat_mul(f, self.target.act(a.name), self.block(a.source))
            if linalg.shape(lhs) == linalg.shape(rhs):
                ok = linalg.mat_eq(lhs, rhs)
            else:
                # Shapes can disagree only through zero-dimensional spaces,
                # where both composites are zero in content.
                ok = linalg.is_zero(lhs) and linalg.is_zero(rhs)
            if not ok:
                raise ModuleError("morphism does not commute with %s" % a.name)
        return self

    def is_zero(self) -> bool:
        return all(linalg.is_zero(b) for b in self.blocks.values())

    def rank(self) -> int:
        f = self.source.field
        return sum(linalg.rank(f, self.block(v))
                   for v in self.blocks)

    def slice(self, z: int) -> "ModuleMorphism":
        """The degree-``z`` component, a morphism of base-quiver
        representations between the degree-``z`` slices."""
        win = self.source.win
        return ModuleMorphism(self.source.slice_view(z),
                              self.target.slice_view(z),
                              {v: self.block(win.vname(v, z))
                               for v in win.base_table.vertices})

    def __add__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        blocks = {}
        for v in set(self.blocks) | set(other.blocks):
            blocks[v] = linalg.mat_add(self.block(v), other.block(v))
        return ModuleMorphism(self.source, self.target, blocks)

    def __sub__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        blocks = {}
        for v in set(self.blocks) | set(other.blocks):
            blocks[v] = linalg.mat_sub(self.block(v), other.block(v))
        return ModuleMorphism(self.source, self.target, blocks)

    def scaled(self, c):
        return ModuleMorphism(self.source, self.target,
                              {v: linalg.mat_scale(c, b)
                               for v, b in self.blocks.items()})


def identity_morphism(m: RepView) -> ModuleMorphism:
    return ModuleMorphism(m, m, {v: linalg.identity(m.field, d)
                                 for v, d in m.dims.items()})


def compose(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    """g after f."""
    if g.source is not f.target and g.source.key() != f.target.key():
        raise ModuleError("composition shape mismatch")
    blocks = {}
    fld = f.source.field
    for v in set(f.blocks) | set(g.blocks):
        blocks[v] = linalg.mat_mul(fld, g.block(v), f.block(v))
    return ModuleMorphism(f.source, g.target, blocks)


# -- linear systems over unknown block families -----------------------------

def _accumulate(row: dict, var: int, c):
    """Add ``c`` to the coefficient of ``var`` in a sparse row, dropping it
    when it cancels."""
    x = row.get(var)
    if x is not None:
        c = x + c
        if not c:
            del row[var]
            return
    row[var] = c


class MorphismSystem:
    """Affine linear system whose unknowns are block families of morphisms
    between representations of one quiver; the engine behind
    :func:`hom_basis` and :func:`solve_morphisms`.  Each equation is a
    sparse row ``{variable: nonzero coefficient}`` in ``rows`` with its
    right-hand side at the same index of ``rhs``."""

    def __init__(self, fieldobj):
        self.field = fieldobj
        self.unknowns = []  # (src RepView, tgt RepView)
        self.layout = []    # per unknown: dict v -> (offset, rows, cols)
        self.nvars = 0
        self.rows = []
        self.rhs = []

    def unknown(self, src: RepView, tgt: RepView) -> int:
        lay = {}
        for v in src.sorted_support():
            r, c = tgt.dim(v), src.dims[v]
            if r:
                lay[v] = (self.nvars, r, c)
                self.nvars += r * c
        self.unknowns.append((src, tgt))
        self.layout.append(lay)
        return len(self.unknowns) - 1

    def require_commutes(self, idx: int):
        """Rows for f_w A = B f_u on every arrow u -> w acting by A on the
        source and B on the target, visiting only the arrows from the
        source's support into the target's."""
        src, tgt = self.unknowns[idx]
        lay = self.layout[idx]
        z = self.field.zero()
        for arr in src.support_arrows():
            name, u, w = arr.name, arr.source, arr.target
            rows_out, cols_out = tgt.dim(w), src.dims[u]
            if not rows_out:
                continue
            a_src = src.acts.get(name) if w in lay else None
            a_tgt = tgt.acts.get(name) if u in lay else None
            if a_src is None and a_tgt is None:
                continue
            if a_src is not None:
                # (f_w A)_ij: coefficient A[k][j] on f_w[i][k]
                w_off, _, w_cols = lay[w]
                a_cols = [[(k, r[j]) for k, r in enumerate(a_src) if r[j]]
                          for j in range(cols_out)]
            if a_tgt is not None:
                # -(B f_u)_ij: coefficient -B[i][k] on f_u[k][j]
                u_off, _, u_cols = lay[u]
                b_rows = [[(k, -x) for k, x in enumerate(r) if x]
                          for r in a_tgt]
            for i in range(rows_out):
                for j in range(cols_out):
                    row = {}
                    if a_src is not None:
                        base = w_off + i * w_cols
                        for k, cval in a_cols[j]:
                            row[base + k] = cval
                    if a_tgt is not None:
                        for k, cval in b_rows[i]:
                            _accumulate(row, u_off + k * u_cols + j, cval)
                    if row:
                        self.rows.append(row)
                        self.rhs.append(z)

    def require_affine(self, terms, rhs: "ModuleMorphism"):
        """Add rows for  sum of terms == rhs, where each term is
        ("L", L, idx) contributing L∘f or ("R", R, idx) contributing f∘R
        for the unknown f numbered idx.  A row without variables is kept
        when its right-hand side is nonzero: it makes the system
        inconsistent."""
        zero = self.field.zero()
        for v, wc in rhs.source.dims.items():
            zr = rhs.target.dim(v)
            if not zr:
                continue
            rhs_m = rhs.blocks.get(v)
            parts = []
            for side, known, idx in terms:
                lay = self.layout[idx].get(v)
                m = known.blocks.get(v)
                if lay is not None and m is not None:
                    parts.append((side, m, lay))
            for i in range(zr):
                for j in range(wc):
                    row = {}
                    for side, m, (off, fr, fc) in parts:
                        if side == "L":
                            for k in range(fr):
                                if m[i][k]:
                                    _accumulate(row, off + k * fc + j,
                                                m[i][k])
                        else:
                            for k in range(fc):
                                if m[k][j]:
                                    _accumulate(row, off + i * fc + k,
                                                m[k][j])
                    y = rhs_m[i][j] if rhs_m is not None else zero
                    if row or y:
                        self.rows.append(row)
                        self.rhs.append(y)

    def solve(self):
        """One solution as a list of block dicts, or None."""
        sol = linalg.solve_rows(self.field, self.rows, self.rhs, self.nvars)
        return None if sol is None else self._unpack(sol)

    def solution_space(self):
        """All solutions of the homogeneous system, as block dicts."""
        if any(self.rhs):
            raise ModuleError("solution_space requires a homogeneous system")
        return [self._unpack(v) for v in
                linalg.nullspace_rows(self.field, self.rows, self.nvars)]

    def _unpack(self, sol):
        out = []
        for idx, (src, tgt) in enumerate(self.unknowns):
            blocks = {}
            for v, (off, r, c) in self.layout[idx].items():
                blocks[v] = [[sol[off + i * c + j] for j in range(c)]
                             for i in range(r)]
            out.append(blocks)
        return out


def hom_basis(m: RepView, n: RepView) -> list:
    """Basis of the space of module morphisms, from the exact solution of
    the commutation constraints."""
    if m.table is not n.table:
        raise ModuleError("hom_basis: representations of different quivers")
    if m.dims.keys().isdisjoint(n.dims):
        return []
    sys = MorphismSystem(m.field)
    idx = sys.unknown(m, n)
    sys.require_commutes(idx)
    return [ModuleMorphism(m, n, sol[idx]) for sol in sys.solution_space()]


def solve_morphisms(rhs: ModuleMorphism, terms: list):
    """One solution of  Σ L∘X + Σ X∘R = rhs  in commuting morphisms X, one
    unknown per term, or None.  A term ("L", L) stands for L∘X with
    X: rhs.source -> L.source; a term ("R", R) for X∘R with
    X: R.target -> rhs.target.  Returns one morphism per term, in order."""
    sys = MorphismSystem(rhs.source.field)
    placed = []
    for side, known in terms:
        if side == "L":
            idx = sys.unknown(rhs.source, known.source)
        else:
            idx = sys.unknown(known.target, rhs.target)
        placed.append((side, known, idx))
    for _, _, idx in placed:
        sys.require_commutes(idx)
    sys.require_affine(placed, rhs)
    sol = sys.solve()
    if sol is None:
        return None
    return [ModuleMorphism(src, tgt, blocks)
            for (src, tgt), blocks in zip(sys.unknowns, sol)]


def is_split_mono(h: ModuleMorphism) -> bool:
    """Whether g∘h = id for some morphism g (``h`` may be a slice)."""
    return solve_morphisms(identity_morphism(h.source), [("R", h)]) is not None


def is_split_epi(h: ModuleMorphism) -> bool:
    """Whether h∘g = id for some morphism g (``h`` may be a slice)."""
    return solve_morphisms(identity_morphism(h.target), [("L", h)]) is not None


def splitness(h: ModuleMorphism) -> dict:
    """The degree profile ``{z: (split mono, split epi)}`` of the degree
    components of ``h``, each a single exact solvability question."""
    degrees = sorted(set(h.source.support_degrees())
                     | set(h.target.support_degrees()))
    profile = {}
    for z in degrees:
        hz = h.slice(z)
        profile[z] = (is_split_mono(hz), is_split_epi(hz))
    return profile


@dataclass
class KerCoker:
    ker: GradedModule
    ker_incl: ModuleMorphism
    coker: GradedModule
    coker_proj: ModuleMorphism


def submodule(m: GradedModule, column_basis: dict):
    """(sub, inclusion) for the submodule of ``m`` spanned at each vertex v
    by the independent columns of ``column_basis[v]``, in that basis."""
    fld = m.field
    basis = {v: b for v, b in column_basis.items() if b and b[0]}
    acts = {}
    for a in m.table.arrows:
        if a.source in basis and a.target in basis:
            rhs = linalg.mat_mul(fld, m.act(a.name), basis[a.source])
            x = linalg.solve(fld, basis[a.target], rhs)
            if x is None:
                raise ModuleError("span is not closed under %s" % a.name)
            acts[a.name] = x
    sub = GradedModule(m.win, fld, {v: len(b[0]) for v, b in basis.items()},
                       acts)
    return sub, ModuleMorphism(sub, m, basis)


def quotient(m: GradedModule, row_basis: dict):
    """(quotient, projection) for the quotient of ``m`` whose coordinates
    at each vertex v are the independent rows of ``row_basis[v]``; their
    joint kernel must be a submodule."""
    fld = m.field
    basis = {v: b for v, b in row_basis.items() if b}
    acts = {}
    for a in m.table.arrows:
        if a.source in basis and a.target in basis:
            rhs = linalg.mat_mul(fld, basis[a.target], m.act(a.name))
            x = linalg.solve(fld, linalg.transpose(fld, basis[a.source]),
                             linalg.transpose(fld, rhs))
            if x is None:
                raise ModuleError("action does not descend along %s"
                                  % a.name)
            acts[a.name] = linalg.transpose(fld, x)
    quot = GradedModule(m.win, fld, {v: len(b) for v, b in basis.items()},
                        acts)
    return quot, ModuleMorphism(m, quot, basis)


def _joint_kernel(fld, mats: list, d: int):
    """Basis vectors of the joint kernel of matrices with ``d`` columns."""
    stacked = linalg.vstack(mats)
    return (linalg.nullspace(fld, stacked) if stacked
            else linalg.identity(fld, d))


def kernel_cokernel(h: ModuleMorphism) -> KerCoker:
    fld = h.source.field
    kbasis = {v: linalg.transpose(fld, _joint_kernel(fld, [h.block(v)], d))
              for v, d in h.source.dims.items()}
    pbasis = {v: _joint_kernel(fld, [linalg.transpose(fld, h.block(v))], d)
              for v, d in h.target.dims.items()}
    ker, ker_incl = submodule(h.source, kbasis)
    coker, coker_proj = quotient(h.target, pbasis)
    ker.validate()
    coker.validate()
    ker_incl.validate()
    coker_proj.validate()
    return KerCoker(ker, ker_incl, coker, coker_proj)


@dataclass
class SocRad:
    soc: GradedModule
    soc_incl: ModuleMorphism
    rad: GradedModule
    rad_incl: ModuleMorphism
    top: GradedModule
    top_proj: ModuleMorphism


def socle(m: GradedModule):
    """(socle, inclusion): the joint kernel of all arrow actions.  Arrows
    act by zero on it, so it needs no action solves."""
    fld = m.field
    q = m.table.quiver
    soc_basis = {}
    for v, d in m.dims.items():
        vecs = _joint_kernel(fld, [m.act(a.name) for a in q.arrows_out(v)], d)
        if vecs:
            soc_basis[v] = linalg.transpose(fld, vecs)
    soc = GradedModule(m.win, fld,
                       {v: len(b[0]) for v, b in soc_basis.items()}, {})
    soc_incl = ModuleMorphism(soc, m, soc_basis)
    soc.validate()
    soc_incl.validate()
    return soc, soc_incl


def socle_radical(m: GradedModule) -> SocRad:
    """Socle (see :func:`socle`), radical (sum of all arrow images, loops
    included) and top (quotient by the radical)."""
    fld = m.field
    q = m.table.quiver
    soc, soc_incl = socle(m)
    rad_basis = {}
    for v in m.dims:
        ins = [m.act(a.name) for a in q.arrows_in(v) if m.dim(a.source)]
        ins = [a for a in ins if a and a[0]]
        if ins:
            rad_basis[v] = linalg.column_space_basis(fld, linalg.hstack(ins))
    rad, rad_incl = submodule(m, rad_basis)

    kc = kernel_cokernel(rad_incl)
    rad.validate()
    rad_incl.validate()
    return SocRad(soc, soc_incl, rad, rad_incl, kc.coker, kc.coker_proj)


def direct_sum(mods: list):
    """(sum, inclusions, projections) with block-diagonal actions."""
    if not mods:
        raise ModuleError("direct_sum of nothing")
    win, fld = mods[0].win, mods[0].field

    def diagonal(blocks, shapes):
        return linalg.vstack([
            linalg.hstack([blk if j == k else linalg.zeros(fld, rows, cols)
                           for j, (_, cols) in enumerate(shapes)])
            for k, (blk, (rows, _)) in enumerate(zip(blocks, shapes))])

    dims = {}
    for m in mods:
        for v, d in m.dims.items():
            dims[v] = dims.get(v, 0) + d
    acts = {a.name: diagonal([m.act(a.name) for m in mods],
                             [(m.dim(a.target), m.dim(a.source))
                              for m in mods])
            for a in win.table.arrows
            if a.source in dims and a.target in dims}
    total = GradedModule(win, fld, dims, acts)
    incls, projs = [], []
    for k, m in enumerate(mods):
        iblocks = {v: linalg.vstack([
            linalg.identity(fld, d) if j == k
            else linalg.zeros(fld, n.dim(v), d) for j, n in enumerate(mods)])
            for v, d in m.dims.items()}
        incls.append(ModuleMorphism(m, total, iblocks))
        projs.append(ModuleMorphism(total, m, {
            v: linalg.transpose(fld, b) for v, b in iblocks.items()}))
    return total, incls, projs


def injective_hull(m: GradedModule):
    """(hull, embedding): the injective hull of ``m``, built once per
    window, field and module data (``m.key()``) and kept on the window as
    a payload, the embedding's blocks in the hull's ``meta``.  Every call
    returns a fresh hull and a fresh embedding of ``m`` itself."""
    if m.is_zero():
        raise ModuleError("injective hull of the zero module")
    hull = m.win.cached_modules(("injective hull", m.key()), m.field,
                                lambda: [_build_injective_hull(m)])[0]
    return hull, ModuleMorphism(m, hull, hull.meta["embedding"])


def _build_injective_hull(m: GradedModule) -> GradedModule:
    """The hull assembled from the projective-injective covers of the
    socle constituents one degree down, with ``meta["embedding"]`` the
    blocks of an embedding that extends the socle inclusion and is
    certified essential via the socle criterion."""
    win, fld = m.win, m.field
    soc, soc_incl = socle(m)
    if min(win.degree(v) for v in soc.dims) - 1 < win.lo:
        raise ModuleError("socle support touches the window floor; "
                          "enlarge the window before taking hulls")
    summands = []
    soc_targets = []  # per socle basis column: (vertex, summand index)
    for v in soc.sorted_support():
        base_v, z = win.vertex_info(v)
        for k in range(soc.dim(v)):
            summands.append(win.projective(base_v, z - 1, fld))
            soc_targets.append((v, len(summands) - 1))
    hull, incls, _projs = direct_sum(summands)

    # Prescribe where each socle column lands: on the socle basis path of
    # the matching summand, certified when the summand was built.
    columns = {}
    for v, si in soc_targets:
        sv, index = summands[si].meta["socle"]
        if sv != v:
            raise ModuleError("projective-injective summand has unexpected "
                              "socle at %s" % sv)
        columns.setdefault(sv, []).append(
            [[row[index]] for row in incls[si].block(sv)])
    prescribed = {sv: linalg.hstack(cols) for sv, cols in columns.items()}

    # emb ∘ socle inclusion  =  prescribed embedding of the socle.
    sol = solve_morphisms(ModuleMorphism(soc, hull, prescribed),
                          [("R", soc_incl)])
    if sol is None:
        raise ModuleError("no extension of the socle embedding; "
                          "hull construction failed")
    emb = sol[0]
    emb.validate()
    if emb.rank() != m.total_dim():
        raise ModuleError("hull embedding is not injective")
    # Essentiality: the hull's socle must lie inside the image.
    hsoc, hsoc_incl = socle(hull)
    for v in hsoc.dims:
        image = emb.block(v)
        aug = linalg.hstack([image, hsoc_incl.block(v)])
        if linalg.rank(fld, aug) != linalg.rank(fld, image):
            raise ModuleError("hull embedding is not essential at %s" % v)
    hull.meta = {"embedding": emb.blocks}
    return hull


@dataclass
class ShortExactSeq:
    f: ModuleMorphism
    g: ModuleMorphism
    meta: Optional[dict] = None


@dataclass
class SesReport:
    global_exact: bool
    degreewise: dict          # z -> exact?
    agree: bool
    details: list = field(default_factory=list)


def check_ses(seq: ShortExactSeq) -> SesReport:
    """Global exactness and the equivalent degreewise exactness."""
    f, g = seq.f, seq.g
    fld = f.source.field
    details = []
    comp = compose(g, f)
    comp_zero = comp.is_zero()
    if not comp_zero:
        details.append("g∘f is nonzero")
    mono = f.rank() == f.source.total_dim()
    if not mono:
        details.append("f is not injective")
    epi = g.rank() == g.target.total_dim()
    if not epi:
        details.append("g is not surjective")
    dims_ok = (f.source.total_dim() + g.target.total_dim()
               == f.target.total_dim())
    if not dims_ok:
        details.append("dimension count fails")
    global_exact = comp_zero and mono and epi and dims_ok

    degrees = sorted(set(f.source.support_degrees())
                     | set(f.target.support_degrees())
                     | set(g.target.support_degrees()))
    degreewise = dict.fromkeys(degrees, True)
    for v in set(f.source.dims) | set(f.target.dims) | set(g.target.dims):
        fb, gb = f.block(v), g.block(v)
        rk_f, rk_g = linalg.rank(fld, fb), linalg.rank(fld, gb)
        if not (rk_f == f.source.dim(v) and rk_g == g.target.dim(v)
                and rk_f + rk_g == f.target.dim(v)
                and linalg.is_zero(linalg.mat_mul(fld, gb, fb))):
            degreewise[f.source.win.degree(v)] = False
    agree = global_exact == all(degreewise.values())
    return SesReport(global_exact, degreewise, agree, details)


# -- isomorphism certificates and decomposition -----------------------------

def find_isomorphism(a: RepView, b: RepView):
    """An invertible element of a basis of Hom(a, b), or None.  None
    proves that a and b are not isomorphic whenever either of them is
    indecomposable: if a ≅ b then Hom(a, b) ≅ End(a), a local ring by
    Fitting's lemma, whose non-invertible elements form a proper subspace
    that contains no basis.  Between decomposable modules None proves
    nothing."""
    if sorted(a.dims.items()) != sorted(b.dims.items()):
        return None
    basis = hom_basis(a, b)
    if not basis:
        return None if a.total_dim() else identity_morphism(a)
    return _invertible_element(a, basis)


def _invertible_element(a: RepView, basis: list):
    """The first element of ``basis`` (morphisms out of ``a``) that is
    invertible at every vertex, or None."""
    for h in basis:
        if all(linalg.is_invertible(a.field, h.block(v)) for v in a.dims):
            return h
    return None


def _eigenvalue(m: RepView, h: ModuleMorphism):
    """The scalar c with h - c·id nilpotent, for an endomorphism h of an
    indecomposable module whose endomorphism ring is local with the base
    field as residue field.  Each block h_v is then c·I plus a nilpotent,
    so c = tr(h_v) / dim v at a vertex whose dimension the characteristic
    p does not divide; failing one, p <= dim v and c is the only one of
    0..p-1 that makes h_v - c·I singular."""
    fld = m.field
    p = fld.characteristic
    support = m.sorted_support()
    for v in support:
        if not p or m.dim(v) % p:
            return fld.div(linalg.trace(fld, h.block(v)),
                           fld.of_int(m.dim(v)))
    v = support[0]
    for c in range(p):
        shifted = linalg.mat_sub(h.block(v), linalg.mat_scale(
            fld.of_int(c), linalg.identity(fld, m.dim(v))))
        if not linalg.is_invertible(fld, shifted):
            return fld.of_int(c)
    raise ModuleError("endomorphism without an eigenvalue in the field; "
                      "the module is not indecomposable")


def _radical_endo_subspace(m: RepView, endos: list):
    """Spanning set of the radical of a local endomorphism ring with scalar
    residue field: each endomorphism minus its eigenvalue."""
    out = []
    for h in endos:
        c = _eigenvalue(m, h)
        out.append(h - identity_morphism(m).scaled(c) if c else h)
    return out


def radical_hom(a: RepView, b: RepView):
    """Spanning set of the radical of Hom(a, b) for indecomposable
    endpoints: everything if a and b are non-isomorphic, the nilpotent
    endomorphisms otherwise."""
    basis = hom_basis(a, b)
    if not basis:
        return []
    if sorted(a.dims.items()) != sorted(b.dims.items()):
        return basis
    iso = _invertible_element(a, basis)
    if iso is None:
        return basis
    inv_blocks = {v: linalg.inverse(a.field, iso.block(v)) for v in a.dims}
    inv = ModuleMorphism(b, a, inv_blocks)
    endos = [compose(inv, h) for h in basis]
    rad_endos = _radical_endo_subspace(a, endos)
    return [compose(iso, e) for e in rad_endos]


def summand_witness(s: GradedModule, m: GradedModule):
    """(incl, proj) with proj∘incl = id_s when the indecomposable ``s`` is
    a direct summand of ``m``; otherwise None.  Checks the pairwise
    composites of the two Hom bases for an invertible one, which suffices
    when End(s) is local."""
    for v, d in s.dims.items():
        if m.dim(v) < d:
            return None
    into = hom_basis(s, m)
    outof = hom_basis(m, s)
    fld = s.field
    for u in into:
        for w in outof:
            c = compose(w, u)
            if all(linalg.is_invertible(fld, c.block(v)) for v in s.dims):
                inv = ModuleMorphism(
                    s, s, {v: linalg.inverse(fld, c.block(v)) for v in s.dims})
                proj = compose(inv, w)
                return u, proj
    return None


def _split_by_idempotent(m: GradedModule, incl, proj):
    """Complement of the summand im(incl∘proj) inside m."""
    fld = m.field
    rest = identity_morphism(m) - compose(incl, proj)
    comp, comp_incl = submodule(
        m, {v: linalg.column_space_basis(fld, rest.block(v)) for v in m.dims})
    proj_blocks = {}
    for v, b in comp_incl.blocks.items():
        x = linalg.solve(fld, b, rest.block(v))
        if x is None:
            raise ModuleError("complement projection failed at %s" % v)
        proj_blocks[v] = x
    comp_proj = ModuleMorphism(m, comp, proj_blocks)
    return comp, comp_incl, comp_proj


def decompose(m: GradedModule, candidates=None):
    """Indecomposable direct summands with inclusion/projection pairs.

    Summands are matched against ``candidates`` (by default all string
    modules of the window up to the ambient dimension plus the
    projective-injectives), peeling one certified summand at a time.  Each
    test is exact because the candidates are indecomposable (see
    :func:`summand_witness`).  When no candidate is a summand of what is
    left, :class:`DecomposeError` is raised with the summands peeled so
    far.
    """
    if m.total_dim() == 0:
        return []
    if candidates is None:
        from . import strings as _strings
        candidates = _strings.decomposition_candidates(m.win, m.field,
                                                       m.total_dim())
    cands = sorted(candidates, key=lambda c: (-c.total_dim(), c.key()))

    result = []
    current = m
    incl_to_m = proj_from_m = identity_morphism(m)
    while True:
        for s in cands:
            if s.total_dim() > current.total_dim():
                continue
            w = summand_witness(s, current)
            if w is not None:
                break
        else:
            raise DecomposeError(
                "not decomposed: no candidate is a summand of a piece of "
                "dimension %d" % current.total_dim(), partial=result)
        u, p = w
        result.append((s, compose(incl_to_m, u), compose(p, proj_from_m)))
        if s.total_dim() == current.total_dim():
            break
        current, ci, cp = _split_by_idempotent(current, u, p)
        incl_to_m = compose(incl_to_m, ci)
        proj_from_m = compose(cp, proj_from_m)
    total = sum(s.total_dim() for s, _, _ in result)
    if total != m.total_dim():
        raise ModuleError("decomposition lost dimensions")
    return result


# -- serialization -----------------------------------------------------------

def module_to_text(m: GradedModule) -> str:
    fld = m.field
    lines = ["module"]
    for v in m.sorted_support():
        lines.append("dim %s %d" % (v, m.dim(v)))
    q = m.win.presentation.quiver
    for a in q.sorted_arrows():
        if m.dim(a.source) and m.dim(a.target):
            mat = m.act(a.name)
            rows = [" ".join(fld.fmt(x) for x in row) for row in mat]
            lines.append("act %s %d %d %s"
                         % (a.name, len(mat), len(mat[0]), " ; ".join(rows)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def morphism_to_text(h: ModuleMorphism) -> str:
    fld = h.source.field
    lines = ["morphism"]
    for v in sorted(h.blocks, key=h.source.win.vertex_sort_key):
        mat = h.blocks[v]
        rows = [" ".join(fld.fmt(x) for x in row) for row in mat]
        lines.append("block %s %d %d %s"
                     % (v, len(mat), len(mat[0]) if mat else 0,
                        " ; ".join(rows)))
    lines.append("end")
    return "\n".join(lines) + "\n"
