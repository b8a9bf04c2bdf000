"""The words of the window projectives and the projective summands of
almost split middles.

``tests/data/projective_words.txt`` pins :func:`strings.projective_words`
(contents and insertion order) on eight presentations and three windows.
Regenerate it (only when a change of the words is intended) with

    PYTHONPATH=src python tests/test_projectives.py

The projective tests compare each window projective with a reference
construction from the window's path basis and the normal form of every
basis path times every arrow, and check that building projectives,
sequences and triangles takes no normal form of a window path.

The summand tests name the projective summand of each middle term by an
explicit isomorphism search over every window projective and compare the
result with :func:`stable.ar_triangle_from_sequence`, which reads the
summands off the inclusions and projections the sequence carries
(``meta["parts"]``); the carried-decomposition tests check those maps.
"""

import os

import pytest

from repstable import modules, stable, strings
from repstable.fields import PrimeField, QQ
from repstable.presentation import (
    AlgebraPresentation,
    PathWord,
    parse_presentation,
)
from repstable.repetitive import build_repetitive_window, quotient_by_socle
from repstable.strings import StringWord

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "data", "projective_words.txt")
EXAMPLE4 = os.path.join(HERE, "..", "src", "repstable", "data",
                        "example4.quiver")

PRESENTATIONS = {
    "a2": "vertices 1 2\narrow a : 1 -> 2\n",
    "a3": "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero a b\n",
    "loop": "vertices 1\narrow l : 1 -> 1\nzero l l\nnilpotent 10\n",
    "point": "vertices 1\n",
    "a4": ("vertices 1 2 3 4\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
           "arrow c : 3 -> 4\nzero a b\n"),
    "fork": "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 3 -> 2\n",
    "twoloop": ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
                "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n"),
}
WINDOWS = [(0, 3), (-3, 5), (-7, 9)]
CASES = sorted(PRESENTATIONS) + ["ex4"]


def _presentation(name):
    if name == "ex4":
        with open(EXAMPLE4) as fh:
            return parse_presentation(fh.read())
    return parse_presentation(PRESENTATIONS[name])


def render(case, lo, hi):
    """One line per entry of both dicts, in insertion order."""
    win = build_repetitive_window(_presentation(case), lo, hi)
    uni, bis = strings.projective_words(win)
    lines = []
    for kind, words in (("uni", uni), ("bis", bis)):
        for enc, (v, z) in words.items():
            lines.append("%s %r %s@%d" % (kind, enc, v, z))
    return lines


def render_all():
    out = []
    for case in CASES:
        for lo, hi in WINDOWS:
            out.append("== %s %d..%d\n" % (case, lo, hi))
            out.extend(line + "\n" for line in render(case, lo, hi))
    return "".join(out)


def _pinned():
    with open(FIXTURE) as fh:
        text = fh.read()
    out = {}
    for chunk in text.split("== ")[1:]:
        label, body = chunk.split("\n", 1)
        out[label] = body.splitlines()
    return out


@pytest.mark.parametrize("case", CASES)
def test_projective_words_pinned(case):
    pinned = _pinned()
    for lo, hi in WINDOWS:
        assert render(case, lo, hi) == pinned["%s %d..%d" % (case, lo, hi)]


@pytest.mark.parametrize("case", CASES)
def test_binomial_relations_are_socle_path_pairs(case):
    # The window identifies exactly the two socle paths of each biserial
    # projective, in vertex order, and nothing else.
    for lo, hi in WINDOWS:
        win = build_repetitive_window(_presentation(case), lo, hi)
        binomials = [(r.path, r.other) for r in win.presentation.relations
                     if r.kind == "binomial"]
        pairs = [tuple(win.socle_paths(v, z)) for z in range(lo, hi)
                 for v in sorted(win.base.quiver.vertices)
                 if len(win.socle_paths(v, z)) == 2]
        assert binomials == pairs


@pytest.mark.parametrize("case", CASES)
def test_socle_paths_are_maximal(case):
    win = build_repetitive_window(_presentation(case), 0, 3)
    pres = win.presentation
    for z in range(win.lo, win.hi):
        for v in sorted(win.base.quiver.vertices):
            paths = win.socle_paths(v, z)
            assert 1 <= len(paths) <= 2
            for p in paths:
                assert pres.is_nonzero(p)
                for a in pres.quiver.arrows_out(p.target(pres.quiver)):
                    assert not pres.is_nonzero(
                        PathWord(p.source, p.arrows + (a.name,)))


# -- projectives built from their socle paths --------------------------------

def _reference_projective(win, v, z, fld):
    """(basis, dims, acts) of the projective at ``(v, z)``: its basis the
    window's basis paths out of ``(v, z)``, and the action of an arrow on a
    basis path the normal form of the path followed by the arrow."""
    pres = win.presentation
    quiver = pres.quiver
    basis = [p for p in pres.path_basis() if p.source == win.vname(v, z)]
    at = {}
    for p in basis:
        at.setdefault(p.target(quiver), []).append(p)
    dims = {t: len(paths) for t, paths in at.items()}
    acts = {}
    for an, arr in quiver.arrows.items():
        if arr.source not in dims or arr.target not in dims:
            continue
        mat = [[fld.zero()] * dims[arr.source]
               for _ in range(dims[arr.target])]
        for j, p in enumerate(at[arr.source]):
            nf = pres.path_normal_form(PathWord(p.source, p.arrows + (an,)))
            if not nf.is_zero:
                mat[at[arr.target].index(nf.path)][j] = fld.one()
        acts[an] = mat
    return basis, dims, acts


@pytest.mark.parametrize("case", CASES)
def test_projectives_match_the_path_basis_construction(case):
    for lo, hi in WINDOWS[:2]:
        win = build_repetitive_window(_presentation(case), lo, hi)
        for fld in (QQ, PrimeField(2)):
            for z in range(lo, hi):
                for v in sorted(win.base.quiver.vertices):
                    phat = win.projective(v, z, fld)
                    basis, dims, acts = _reference_projective(win, v, z, fld)
                    assert list(phat.meta["basis"]) == basis
                    assert phat.dims == dims and phat.acts == acts
                    soc, soc_incl = modules.socle(phat)
                    sv, index = phat.meta["socle"]
                    assert soc.dims == {sv: 1}
                    assert soc_incl.blocks[sv] == [
                        [fld.one() if i == index else fld.zero()]
                        for i in range(phat.dim(sv))]


def test_no_window_normal_forms_at_run_time(monkeypatch):
    # Only the base presentation is ever reduced: window projectives are
    # read off their socle paths.
    base = _presentation("ex4")
    reduced = []
    normal_form = AlgebraPresentation.path_normal_form

    def recorded(pres, p):
        if pres is not base:
            reduced.append(p)
        return normal_form(pres, p)

    monkeypatch.setattr(AlgebraPresentation, "path_normal_form", recorded)
    win = build_repetitive_window(base, -1, 2)
    win.all_projectives(QQ)
    _, bis = strings.projective_words(win)
    seq, win2 = strings.ar_sequence(win, StringWord.decode(sorted(bis)[0]), QQ)
    assert seq.meta["projective"] is not None
    stable.triangle_from_ses(seq)
    quotient_by_socle(win2.projective(*seq.meta["projective"], QQ))
    assert reduced == []
    assert strings.projective_words(win) is strings.projective_words(win)


# -- naming the projective summand of a middle term ----------------------------

def _search_projective(win, s, fld):
    """The window vertex whose projective is isomorphic to ``s``, found by
    an isomorphism search over every window projective, or None."""
    for z in range(win.lo, win.hi):
        for v in sorted(win.base.quiver.vertices):
            phat = win.projective(v, z, fld)
            if sorted(phat.dims.items()) != sorted(s.dims.items()):
                continue
            if modules.find_isomorphism(s, phat) is not None:
                return (v, z)
    return None


def _reference(seq):
    """(projective vertex or None, number of free parts) of the middle
    term, decomposed against its middle words and every window projective."""
    win = seq.f.source.win
    fld = seq.f.source.field
    cands = [strings.string_module(win, info["word"], fld)
             for info, _ in seq.meta["components"]
             if info["word"] is not None]
    cands.extend(win.all_projectives(fld))
    named = [_search_projective(win, s, fld)
             for s, _, _ in modules.decompose(seq.f.target, cands)]
    found = [vz for vz in named if vz is not None]
    assert len(found) <= 1
    return (found[0] if found else None), len(named) - len(found)


def _assert_named_as_reference(seq):
    tri, phat_info = stable.ar_triangle_from_sequence(seq)
    want_at, want_free = _reference(seq)
    got_at = (None if phat_info is None
              else (phat_info["vertex"], phat_info["degree"]))
    assert got_at == want_at
    assert tri.data["free_parts"] == want_free
    return got_at


def _criterion_6_sequences():
    ex4 = _presentation("ex4")
    wins = {
        "a2": build_repetitive_window(_presentation("a2"), 0, 3),
        "a3": build_repetitive_window(_presentation("a3"), 0, 3),
        "ex4": build_repetitive_window(ex4, -1, 2),
    }
    specs = [
        ("a2", StringWord("2@1", (("hat_a@1", 1),))),
        ("a3", StringWord("2@1", (("hat_a@1", 1),))),
        ("a3", StringWord("2@2", (("b@2", 1),))),
        ("ex4", StringWord("2@0", (("hat_alpha@0", 1),))),
        ("ex4", StringWord("4@1", (("lam@1", 1), ("beta@1", 1),
                                   ("theta@1", 1)))),
    ]
    for key in ("a3", "ex4"):
        _, bis = strings.projective_words(wins[key])
        specs.append((key, StringWord.decode(sorted(bis)[0])))
    return [strings.ar_sequence(wins[key], w, QQ)[0] for key, w in specs]


def test_criterion_6_projective_summands_named():
    seqs = _criterion_6_sequences()
    named = [_assert_named_as_reference(seq) for seq in seqs]
    assert len(named) == 7 and all(vz is not None for vz in named)


@pytest.mark.parametrize("case, window, seed, steps, with_projective", [
    ("ex4", (-3, 5), "1@0", 18, 2),
    ("twoloop", (-2, 5), "1@1", 8, 0),
])
def test_mesh_projective_summands_named(case, window, seed, steps,
                                        with_projective):
    win = build_repetitive_window(_presentation(case), *window)
    comp = strings.knit_component(win, StringWord(seed, ()), steps, QQ)
    assert len(comp.meshes) == steps
    named = [_assert_named_as_reference(mesh.seq) for mesh in comp.meshes]
    assert sum(vz is not None for vz in named) == with_projective


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write(render_all())


# -- the decomposition an almost split sequence carries ------------------------

def _assert_carried_decomposition(seq):
    """The middle term's summands are the ones the sequence was built
    from, in the order of its components: each is the module its component
    names, projᵢ∘inclⱼ = δᵢⱼ·id, Σ inclᵢ∘projᵢ = id on the middle and
    f = Σ inclᵢ∘compᵢ."""
    middle = seq.f.target
    quiver = middle.win.presentation.quiver
    comps, parts = seq.meta["components"], seq.meta["parts"]
    assert len(parts) == len(comps)
    for (info, comp), (s, incl, proj) in zip(comps, parts):
        if info["word"] is None:
            assert s.meta["projective"] == info["projective_at"]
        else:
            assert strings.canonical_word(s.meta["word"], quiver) \
                == info["word"]
        assert comp.target is s and incl.source is s and proj.target is s
        assert incl.target is middle and proj.source is middle
    for i, (s, _, proj) in enumerate(parts):
        for j, (_, incl, _) in enumerate(parts):
            both = modules.compose(proj, incl)
            if i == j:
                both = both - modules.identity_morphism(s)
            assert both.is_zero(), (i, j)
    ident = sum((modules.compose(incl, proj) for _, incl, proj in parts),
                modules.ModuleMorphism(middle, middle, {}))
    assert (ident - modules.identity_morphism(middle)).is_zero()
    f = sum((modules.compose(incl, comp)
             for (_, comp), (_, incl, _) in zip(comps, parts)),
            modules.ModuleMorphism(seq.f.source, middle, {}))
    assert (f - seq.f).is_zero()


@pytest.mark.parametrize("case, window, seed, steps", [
    ("ex4", (-3, 5), "1@0", 18),
    ("twoloop", (-2, 5), "1@1", 8),
])
def test_mesh_middles_carry_their_decomposition(case, window, seed, steps):
    win = build_repetitive_window(_presentation(case), *window)
    comp = strings.knit_component(win, StringWord(seed, ()), steps, QQ)
    assert len(comp.meshes) == steps
    for mesh in comp.meshes:
        _assert_carried_decomposition(mesh.seq)


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=repr)
def test_criterion_3_middles_carry_their_decomposition(fld):
    # The almost split sequences of the A2/A3 oracle: every word up to
    # length 4 on window 0..3.
    checked = 0
    for case in ("a2", "a3"):
        win = build_repetitive_window(_presentation(case), 0, 3)
        for w in strings.enumerate_strings(win, 4):
            try:
                seq, _ = strings.ar_sequence(win, w, fld)
            except strings.ArInjectiveError:
                continue
            _assert_carried_decomposition(seq)
            checked += 1
    assert checked >= 20
