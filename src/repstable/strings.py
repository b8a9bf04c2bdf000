"""String combinatorics for the special biserial repetitive window.

Words are finite alternating walks of direct and inverse arrow letters,
written in application order.  Validity has one rule, one letter at a
time: a trivial word at a window vertex is valid, and a valid word
extended by one letter stays valid exactly when the letter starts where
the word ends, does not undo the letter before it (no ``(a, s)`` straight
after ``(a, -s)``), and the run of same-sign letters through it (read as
a path, so an inverse run reversed) stays shorter than the nilpotency
bound and contains no vanishing or socle-identified path through the new
letter.  Every word the module makes grows by that step
(:meth:`StringContext.extend`); words from outside are checked by folding
it over their letters (:meth:`StringContext.is_valid`).

Almost split sequences are produced by a fixed one-sided surgery
convention: at an end where the walk can grow, append one inverse letter
and the maximal direct run after it (a hook, giving a canonical
inclusion); otherwise remove the last direct letter together with the
inverse run behind it (a cohook, giving a canonical surjection).  At the
right end of a trivial word the alphabetically first admissible arrow is
hooked and the left end uses the remaining one.  Correctness is enforced
by the almost-split axiom checks, not by the convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg, modules


class StringError(Exception):
    pass


class ArInjectiveError(Exception):
    """No almost split sequence starts at an injective module."""


class EnlargementError(Exception):
    pass


@dataclass(frozen=True)
class StringWord:
    """A reduced walk; ``letters`` are (arrow name, +1/-1) pairs and the
    trivial walk at a vertex has no letters."""

    source: str
    letters: tuple

    def __len__(self):
        return len(self.letters)

    def positions(self, quiver) -> list:
        verts = [self.source]
        at = self.source
        for name, sign in self.letters:
            arr = quiver.arrows[name]
            at = arr.target if sign > 0 else arr.source
            verts.append(at)
        return verts

    def end(self, quiver) -> str:
        if not self.letters:
            return self.source
        name, sign = self.letters[-1]
        arr = quiver.arrows[name]
        return arr.target if sign > 0 else arr.source

    def inverse(self, quiver) -> "StringWord":
        return StringWord(self.end(quiver),
                          tuple((n, -s) for n, s in reversed(self.letters)))

    def encode(self):
        return (self.source,) + self.letters

    @staticmethod
    def decode(enc) -> "StringWord":
        """The word with encoding ``enc`` (the inverse of :meth:`encode`)."""
        return StringWord(enc[0], tuple(enc[1:]))

    def __str__(self):
        if not self.letters:
            return "1_(%s)" % self.source
        return ".".join(n if s > 0 else n + "^-1" for n, s in self.letters)


def canonical(w: StringWord, quiver) -> tuple:
    """Identity of the string up to formal inversion."""
    return min(w.encode(), w.inverse(quiver).encode())


def canonical_word(w: StringWord, quiver) -> StringWord:
    return StringWord.decode(canonical(w, quiver))


class StringContext:
    """Validity data shared by all word operations on a window: its
    presentation's quiver, the forbidden direct subwords (vanishing paths
    and both sides of every socle identification) and ``letters_at[v]``,
    the letters that can follow a walk ending at ``v`` (arrows by name,
    direct before inverse).  A word is valid when it grows from its
    trivial word by :meth:`extend` steps, which check only what the new
    letter can break: walk continuity, the reduced junction, and the
    nilpotency bound and forbidden subwords of the run through it."""

    def __init__(self, pres):
        self.pres = pres
        self.quiver = pres.quiver
        self.forbidden = pres.forbidden_subwords
        self._maxforb = max(map(len, self.forbidden), default=0)
        self.letters_at = {v: [] for v in self.quiver.vertices}
        for arr in self.quiver.sorted_arrows():
            self.letters_at[arr.source].append((arr.name, 1))
            self.letters_at[arr.target].append((arr.name, -1))

    def extend(self, w: StringWord, name: str, sign: int):
        """The valid word ``w`` followed by the letter ``(name, sign)``, or
        None when that is not a valid word."""
        arr = self.quiver.arrows[name]
        if (arr.source if sign > 0 else arr.target) != w.end(self.quiver):
            return None
        letters = w.letters
        if letters and letters[-1] == (name, -sign):
            return None
        run = [name]           # the run through the new letter, newest first
        for prev, s in reversed(letters):
            if s != sign or len(run) >= self.pres.nilpotency:
                break
            run.append(prev)
        if len(run) >= self.pres.nilpotency:
            return None
        if sign > 0:
            run.reverse()      # as a path, ending at the new letter
        for k in range(2, min(len(run), self._maxforb) + 1):
            sub = run[-k:] if sign > 0 else run[:k]
            if tuple(sub) in self.forbidden:
                return None
        return StringWord(w.source, letters + ((name, sign),))

    def is_valid(self, w: StringWord) -> bool:
        """Whether a word from outside is valid: its vertex and arrows are
        in the window and it grows letter by letter through
        :meth:`extend`."""
        if w.source not in self.quiver.vertices:
            return False
        cur = StringWord(w.source, ())
        for name, sign in w.letters:
            if name not in self.quiver.arrows:
                return False
            cur = self.extend(cur, name, sign)
            if cur is None:
                return False
        return True

    def is_band(self, w: StringWord) -> bool:
        """Cyclic word whose square is again a valid walk and which mixes
        letter directions; such words parameterize one-parameter families
        and are excluded from the string enumeration."""
        if not w.letters or w.end(self.quiver) != w.source:
            return False
        signs = {s for _, s in w.letters}
        if len(signs) < 2:
            return False
        doubled = StringWord(w.source, w.letters + w.letters)
        return self.is_valid(doubled)


def window_context(win) -> StringContext:
    """The string context of the window, built once per window."""
    return win.derived("string context",
                       lambda: StringContext(win.presentation))


# -- string modules ---------------------------------------------------------

def string_module(win, w: StringWord, fieldobj) -> "modules.GradedModule":
    """The validated window module with one basis vector per walk position
    and arrow actions along the letters; dimension is ``len(w) + 1``.
    Built once per window, word and field; every call returns a fresh
    module."""
    return win.cached_modules(
        ("string", w), fieldobj,
        lambda: [_build_string_module(win, w, fieldobj)])[0]


def _build_string_module(win, w: StringWord, fieldobj):
    ctx = window_context(win)
    if not ctx.is_valid(w):
        raise StringError("invalid string word %s" % w)
    positions = w.positions(ctx.quiver)
    at_vertex = {}
    for i, v in enumerate(positions):
        at_vertex.setdefault(v, []).append(i)
    dims = {v: len(ix) for v, ix in at_vertex.items()}
    acts = {}
    for k, (name, sign) in enumerate(w.letters):
        arr = ctx.quiver.arrows[name]
        if sign > 0:
            src_pos, tgt_pos = k, k + 1
        else:
            src_pos, tgt_pos = k + 1, k
        m = acts.get(name)
        if m is None:
            m = linalg.zeros(fieldobj, dims[arr.target], dims[arr.source])
            acts[name] = m
        i = at_vertex[arr.target].index(tgt_pos)
        j = at_vertex[arr.source].index(src_pos)
        m[i][j] = fieldobj.one()
    mod = modules.GradedModule(win, fieldobj, dims, acts,
                               meta={"word": w, "positions": positions})
    mod.validate()
    return mod


def _position_morphism(src_mod, tgt_mod, pos_map, sign=1):
    """Morphism sending basis position ``i`` of the source to ``sign``
    times position ``pos_map[i]`` of the target (or to zero when absent);
    ``meta["positions"]`` holds each module's position vertices."""
    src, tgt = src_mod.meta["positions"], tgt_mod.meta["positions"]
    col = [src[:i].count(v) for i, v in enumerate(src)]  # index at vertex
    row = [tgt[:t].count(v) for t, v in enumerate(tgt)]
    fld = src_mod.field
    blocks = {v: linalg.zeros(fld, tgt_mod.dim(v), d)
              for v, d in src_mod.dims.items() if tgt_mod.dim(v)}
    for i, t in pos_map.items():
        blocks[src[i]][row[t]][col[i]] = fld.of_int(sign)
    return modules.ModuleMorphism(src_mod, tgt_mod, blocks)


# -- enumeration ------------------------------------------------------------

def enumerate_strings(win, max_len: int, interior_only=True,
                      with_bands=False):
    """All valid words up to the length bound, one representative per
    inverse pair, sorted by (length, encoding).  Band words are skipped
    (and returned separately when ``with_bands`` is set).
    ``interior_only`` keeps the words that avoid the window's two boundary
    degrees."""
    ctx = window_context(win)
    quiver = ctx.quiver

    def vertex_ok(vn):
        if interior_only:
            return win.is_interior(vn)
        return True

    seen = set()
    words = []
    bands = []
    frontier = [StringWord(v, ()) for v in win.table.vertices
                if vertex_ok(v)]
    for w in frontier:
        seen.add(canonical(w, quiver))
        words.append(w)
    current = frontier
    for _ in range(max_len):
        nxt = []
        for w in current:
            # Extend at the right end of both orientations so every class
            # of the next length is reached.
            for base in (w, w.inverse(quiver)) if w.letters else (w,):
                for name, sign in ctx.letters_at[base.end(quiver)]:
                    w2 = ctx.extend(base, name, sign)
                    if w2 is None or not vertex_ok(w2.end(quiver)):
                        continue
                    key = canonical(w2, quiver)
                    if key in seen:
                        continue
                    seen.add(key)
                    if ctx.is_band(w2):
                        bands.append(w2)
                        continue
                    w2c = StringWord.decode(key)
                    words.append(w2c)
                    nxt.append(w2c)
        current = nxt
    words.sort(key=lambda w: (len(w), w.encode()))
    if with_bands:
        return words, bands
    return words


def decomposition_candidates(win, fieldobj, maxdim: int):
    """Every string module of the window up to dimension ``maxdim``, then
    every window projective (whatever its dimension), as fresh modules.
    The words are enumerated and their modules built once per window,
    field and bound."""
    return (win.cached_modules(
        ("strings", maxdim), fieldobj,
        lambda: [string_module(win, w, fieldobj)
                 for w in enumerate_strings(win, max(maxdim - 1, 0),
                                            interior_only=False)])
            + win.all_projectives(fieldobj))


# -- words of the projective-injective modules --------------------------------

def projective_words(win):
    """(uniserial words, biserial radical words): canonical encodings
    mapped to the base vertex and degree of the projective they describe,
    read off the socle paths of each window vertex, once per window.  A
    projective with one socle path is uniserial and is the string module
    of that direct walk.  The radical of a projective with two socle paths
    is the walk down the first (by arrow names) after its first arrow and
    back up the second to just below the top."""
    return win.derived("projective words", lambda: _projective_words(win))


def _projective_words(win):
    uni = {}
    bis = {}
    quiver = win.presentation.quiver
    for z in range(win.lo, win.hi):
        for v in sorted(win.base.quiver.vertices):
            paths = win.socle_paths(v, z)
            if len(paths) == 1:
                word = StringWord(paths[0].source,
                                  tuple((a, 1) for a in paths[0].arrows))
                uni[canonical(word, quiver)] = (v, z)
            else:
                down, up = sorted(p.arrows for p in paths)
                word = StringWord(quiver.arrows[down[0]].target,
                                  tuple((a, 1) for a in down[1:])
                                  + tuple((a, -1) for a in reversed(up[1:])))
                bis[canonical(word, quiver)] = (v, z)
    return uni, bis


# -- surgery ----------------------------------------------------------------

@dataclass
class Surgery:
    kind: str                 # "hook" | "delete"
    word: StringWord
    pos_map: dict             # old position -> new position (inclusion),
                              # or kept old position -> new (deletion)


def _hook_candidates(ctx, w: StringWord):
    return [name for name, sign in ctx.letters_at[w.end(ctx.quiver)]
            if sign < 0 and ctx.extend(w, name, sign) is not None]


def _extend_hook(ctx, w: StringWord, b: str) -> StringWord:
    cur = ctx.extend(w, b, -1)
    while True:
        grown = (ctx.extend(cur, name, sign)
                 for name, sign in ctx.letters_at[cur.end(ctx.quiver)]
                 if sign > 0)
        nxt = [w2 for w2 in grown if w2 is not None]
        if len(nxt) > 1:
            raise StringError("direct run is not unique after hook")
        if not nxt:
            return cur
        cur = nxt[0]


def surgery_right(ctx, w: StringWord, forbid_hooks=frozenset()):
    """Hook if possible, else cohook deletion, else None."""
    cands = [b for b in _hook_candidates(ctx, w) if b not in forbid_hooks]
    if len(cands) > 1 and w.letters:
        raise StringError("ambiguous hook at a nontrivial end")
    if cands:
        new = _extend_hook(ctx, w, cands[0])
        pos_map = {i: i for i in range(len(w) + 1)}
        return Surgery("hook", new, pos_map)
    # cohook deletion: drop the last direct letter and everything after it
    last_direct = None
    for i, (_, s) in enumerate(w.letters):
        if s > 0:
            last_direct = i
    if last_direct is None:
        return None
    new = StringWord(w.source, w.letters[:last_direct])
    pos_map = {i: i for i in range(last_direct + 1)}
    return Surgery("delete", new, pos_map)


def surgery_left(ctx, w: StringWord, forbid_hooks=frozenset()):
    quiver = ctx.quiver
    n = len(w)
    rev = w.inverse(quiver)
    s = surgery_right(ctx, rev, forbid_hooks=forbid_hooks)
    if s is None:
        return None
    m = len(s.word)
    flipped = s.word.inverse(quiver)
    pos_map = {}
    for old_rev, new_rev in s.pos_map.items():
        pos_map[n - old_rev] = m - new_rev
    return Surgery(s.kind, flipped, pos_map)


# -- almost split sequences ---------------------------------------------------

def _needs_margin(ctx, w: StringWord, win) -> bool:
    degs = set()
    for v in w.positions(ctx.quiver):
        degs.add(win.degree(v))
    return min(degs) <= win.lo + 1 or max(degs) >= win.hi - 1


def ensure_margin(win, w: StringWord):
    """A window on which the valid word ``w`` keeps more than two free
    degrees on both sides, enlarging in steps of two (an enlarged window
    keeps a valid word valid)."""
    cur = win
    for _ in range(12):
        degs = {cur.degree(v) for v in w.positions(cur.presentation.quiver)}
        if min(degs) - cur.lo > 2 and cur.hi - max(degs) > 2:
            return cur
        cur = cur.enlarged()
    raise EnlargementError("window enlargement cap reached")


def ar_sequence(win, w: StringWord, fieldobj):
    """The almost split sequence starting at the string module of ``w``.

    The middle is assembled from the two end surgeries (plus the whole
    projective when the input is the radical of a biserial projective,
    whose cover cannot be reached by word surgery).  The end term is the
    string module of the pushout word and g is made of position maps
    (:func:`_pushout`); the sequence is certified exact by
    :func:`modules.check_ses` (:class:`StringError` when it is not).
    ``meta["parts"]`` keeps, in the order of ``meta["components"]``, each
    middle summand with its inclusion into and projection from the middle.
    """
    ctx = window_context(win)
    if not ctx.is_valid(w):
        raise StringError("invalid string word %s" % w)
    if _needs_margin(ctx, w, win):
        win = ensure_margin(win, w)
        ctx = window_context(win)
    uni, bis = projective_words(win)
    canon = canonical(w, ctx.quiver)
    if canon in uni:
        raise ArInjectiveError(
            "module of %s is projective-injective; no sequence starts at it"
            % w)

    m = string_module(win, w, fieldobj)

    right = surgery_right(ctx, w)
    forbid = frozenset()
    if right is not None and right.kind == "hook" and not w.letters:
        forbid = frozenset([right.word.letters[0][0]])
    left = surgery_left(ctx, w, forbid_hooks=forbid)

    summands = []      # (module, map M -> summand, info dict)
    for s in (left, right):
        if s is not None:
            smod = string_module(win, s.word, fieldobj)
            summands.append((smod, _position_morphism(m, smod, s.pos_map),
                             {"word": canonical_word(s.word, ctx.quiver),
                              "projective_at": uni.get(
                                  canonical(s.word, ctx.quiver))}))
    proj = None
    if canon in bis:
        v, z = bis[canon]
        phat = win.projective(v, z, fieldobj)
        proj = (win.socle_paths(v, z), phat.meta["basis"])
    end_word, g_maps, into = _pushout(ctx, w, left, right, proj)
    if proj is not None:
        summands.append((phat, _position_morphism(m, phat, into),
                         {"word": None, "projective_at": (v, z)}))

    end = string_module(win, end_word, fieldobj)
    mods = [sm for sm, _, _ in summands]
    middle, incls, projs = modules.direct_sum(mods)
    f = sum((modules.compose(incl, comp)
             for (_, comp, _), incl in zip(summands, incls)),
            modules.ModuleMorphism(m, middle, {}))
    g = sum((modules.compose(_position_morphism(sm, end, pm, sign), pr)
             for sm, (pm, sign), pr in zip(mods, g_maps, projs)),
            modules.ModuleMorphism(middle, end, {}))
    if not modules.check_ses(modules.ShortExactSeq(f, g)).global_exact:
        raise StringError("the pushout sequence starting at %s is not exact"
                          % w)

    proj_at = [info["projective_at"] for _, _, info in summands
               if info["projective_at"] is not None]
    meta = {
        "start_word": canonical_word(w, ctx.quiver),
        "components": [(info, comp) for _, comp, info in summands],
        "parts": list(zip(mods, incls, projs)),
        "middle_words": [info["word"] for _, _, info in summands
                         if info["word"] is not None],
        "projective": proj_at[0] if proj_at else None,
        "end_word": canonical_word(end_word, ctx.quiver),
        "window": (win.lo, win.hi),
    }
    return modules.ShortExactSeq(f, g, meta), win


def _pushout(ctx, w: StringWord, left, right, proj=None):
    """(N, g_maps, into): the end word N of the almost split sequence
    starting at M(w), the pushout of its middle along M(w) (Butler–Ringel,
    Comm. Algebra 15, 1987); per middle summand (the surgeries, left
    first, then the projective) the position map onto N and its sign in
    g; and, when ``proj`` = (socle paths, basis paths) names the biserial
    projective P whose radical is M(w), the position map M(w) → P (else
    None).  Positions without an image map to zero.

    - Two surgeries both keep the positions [a, b] of w.  N is w_l up to
      k = pos_l[a] + b − a followed by w_r after b, and g is (−π_l, +π_r)
      with π_l: j ↦ j for j ≤ k and π_r: i ↦ i − b + k for i ≥ a.
    - One surgery must be a hook.  N is its direct run after the inverse
      letter, the positions that w misses, and g is +π onto it.
    - The radical of P, socle paths down < up (by arrows), is
      down[1:]·up[1:]⁻¹ in one of its orientations (told by its letters),
      and N is P/soc P = (down[:-1])⁻¹·up[:-1].  Each position of w and of
      N is a path of P: P maps onto N by its basis paths (sign +1), and
      each middle through the paths of its positions (sign −1)."""
    surgeries = [s for s in (left, right) if s is not None]
    if proj is not None:
        paths, basis = proj
        down, up = sorted(paths, key=lambda p: p.arrows)
        at = ([down.prefix(i) for i in range(1, len(down) + 1)]
              + [up.prefix(i) for i in range(len(up) - 1, 0, -1)])
        if w.letters != (tuple((a, 1) for a in down.arrows[1:])
                         + tuple((a, -1) for a in reversed(up.arrows[1:]))):
            at.reverse()
        nu = {down.prefix(i): len(down) - 1 - i for i in range(len(down))}
        nu.update({up.prefix(i): len(down) - 1 + i for i in range(len(up))})
        index = {p: t for t, p in enumerate(basis)}
        socle = index.get(down, index.get(up))
        end = StringWord(down.prefix(len(down) - 1).target(ctx.quiver),
                         tuple((a, -1) for a in reversed(down.arrows[:-1]))
                         + tuple((a, 1) for a in up.arrows[:-1]))
        g_maps = [({s.pos_map[i]: nu[at[i]] for i in s.pos_map
                    if at[i] in nu}, -1) for s in surgeries]
        g_maps.append(({t: nu[p] for t, p in enumerate(basis) if p in nu}, 1))
        return end, g_maps, {i: index.get(p, socle) for i, p in enumerate(at)}
    if len(surgeries) == 2:
        kept = sorted(left.pos_map.keys() & right.pos_map.keys())
        if kept:
            a, b = kept[0], kept[-1]
            k = left.pos_map[a] + b - a
            end = StringWord(left.word.source,
                             left.word.letters[:k] + right.word.letters[b:])
            return end, [({j: j for j in range(k + 1)}, -1),
                         ({i: i - b + k
                           for i in range(a, len(right.word) + 1)}, 1)], None
    elif surgeries and surgeries[0].kind == "hook":
        s = surgeries[0]
        free = sorted(set(range(len(s.word) + 1)) - set(s.pos_map.values()))
        lo, hi = free[0], free[-1]
        end = StringWord(s.word.positions(ctx.quiver)[lo],
                         s.word.letters[lo:hi])
        return end, [({j: j - lo for j in free}, 1)], None
    raise StringError("the surgeries of %s have no pushout" % w)


# -- component knitting -------------------------------------------------------

@dataclass
class MeshRecord:
    start: tuple               # canonical encoding
    middles: list              # canonical encodings of stable middle words
    projective: Optional[tuple]
    end: tuple
    edge_maps: list            # ModuleMorphism per stable middle
    seq: "modules.ShortExactSeq"
    window: tuple


@dataclass
class ARQuiverComponent:
    win: object
    nodes: dict                # canonical encoding -> StringWord
    meshes: list
    edges: list                # (src enc, dst enc, label or None)
    truncated: bool = False


def knit_component(win, seed: StringWord, steps: int, fieldobj,
                   classifier=None):
    """Breadth-first mesh completion from a seed word; projective-injective
    middles are dropped from the stable component.  Edges are labeled by
    the classifier (irreducible-map classification) when one is given."""
    ctx = window_context(win)
    seed = canonical_word(seed, ctx.quiver)
    nodes = {canonical(seed, ctx.quiver): seed}
    meshes = []
    edges = []
    queue = [canonical(seed, ctx.quiver)]
    meshed = set()
    truncated = False
    cur_win = win
    while queue and len(meshes) < steps:
        enc = queue.pop(0)
        if enc in meshed:
            continue
        meshed.add(enc)
        word = nodes[enc]
        try:
            seq, cur_win = ar_sequence(cur_win, word, fieldobj)
        except ArInjectiveError:
            continue
        except EnlargementError:
            truncated = True
            break
        ctx = window_context(cur_win)
        stable_middles = []
        edge_maps = []
        for info, comp in seq.meta["components"]:
            if info["projective_at"] is not None:
                continue
            cenc = canonical(info["word"], ctx.quiver)
            stable_middles.append(cenc)
            edge_maps.append(comp)
            if cenc not in nodes:
                nodes[cenc] = StringWord.decode(cenc)
                queue.append(cenc)
        end_enc = canonical(seq.meta["end_word"], ctx.quiver)
        if end_enc not in nodes:
            nodes[end_enc] = StringWord.decode(end_enc)
            queue.append(end_enc)
        for cenc, emap in zip(stable_middles, edge_maps):
            label = classifier(emap) if classifier is not None else None
            edges.append((enc, cenc, label))
        meshes.append(MeshRecord(enc, stable_middles,
                                 seq.meta["projective"], end_enc,
                                 edge_maps, seq, (cur_win.lo, cur_win.hi)))
    return ARQuiverComponent(cur_win, nodes, meshes, edges, truncated)


# -- component export ----------------------------------------------------------

def _dim_sequence(win, w: StringWord) -> str:
    degs = {}
    for v in w.positions(win.presentation.quiver):
        z = win.degree(v)
        degs[z] = degs.get(z, 0) + 1
    return ",".join("%d:%d" % (z, d) for z, d in sorted(degs.items()))


def component_dot(comp: ARQuiverComponent) -> str:
    """Deterministic DOT rendering: stable node order, edges labeled by
    their classification, mesh ranks aligned along the tau orbits."""
    win = comp.win
    order = sorted(comp.nodes)
    ids = {enc: "n%d" % i for i, enc in enumerate(order)}
    lines = ["digraph component {", "  rankdir=LR;",
             "  node [shape=box, fontsize=10];"]
    for enc in order:
        w = comp.nodes[enc]
        lines.append('  %s [label="%s\\n[%s]"];'
                     % (ids[enc], w, _dim_sequence(win, w)))
    for src, dst, label in sorted(comp.edges,
                                  key=lambda e: (e[0], e[1], str(e[2]))):
        txt = ' [label="%s"]' % label if label else ""
        lines.append("  %s -> %s%s;" % (ids[src], ids[dst], txt))
    # tau orbits as same-rank groups
    parent = {enc: enc for enc in order}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mesh in comp.meshes:
        parent[find(mesh.start)] = find(mesh.end)
    groups = {}
    for enc in order:
        groups.setdefault(find(enc), []).append(enc)
    for root in sorted(groups):
        members = groups[root]
        if len(members) > 1:
            lines.append("  { rank=same; %s }"
                         % " ".join(ids[m] for m in sorted(members)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def component_table(comp: ARQuiverComponent) -> str:
    """Machine-readable component table, one mesh per record."""
    lines = ["# mesh\tstart\tmiddles\tprojective\tend\twindow"]
    for i, mesh in enumerate(comp.meshes):
        middles = "+".join(str(StringWord.decode(m)) for m in mesh.middles)
        proj = ("%s@%d" % mesh.projective) if mesh.projective else "-"
        lines.append("%d\t%s\t%s\t%s\t%s\t%d..%d"
                     % (i, StringWord.decode(mesh.start), middles, proj,
                        StringWord.decode(mesh.end), mesh.window[0],
                        mesh.window[1]))
    return "\n".join(lines) + "\n"
