"""The exact irreducibility certificate of
``classify_irreducible(certify=True)``: a radical map out of M lies in rad²
exactly when it factors through the almost split sequence starting at M
by a radical map out of the middle.  The verdicts are checked against the
universe certificate (``rad_square_membership`` over the string modules
up to a dimension), and composites of two mesh edges, which lie in rad² by
definition, must read reducible."""

import pytest

from repstable import modules, stable, strings
from repstable.fields import PrimeField, QQ
from repstable.presentation import parse_presentation
from repstable.repetitive import build_repetitive_window, radical_of_projective
from repstable.strings import StringWord

TWOLOOP_TEXT = ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
                "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n")
RAD2 = "factors through the radical square"


def certified(h):
    return stable.classify_irreducible(h, certify=True)


def mesh_edges(comp):
    return [e for mesh in comp.meshes for e in mesh.edge_maps]


def consecutive_composites(comp):
    """The nonzero composites e2∘e1 of an edge e1: M → E of one mesh and
    an edge e2: E → F of the mesh that starts at E.  The two meshes build
    E from different words of it, so an isomorphism joins them."""
    by_start = {mesh.start: mesh for mesh in comp.meshes}
    out = []
    for mesh in comp.meshes:
        for middle, e1 in zip(mesh.middles, mesh.edge_maps):
            if middle not in by_start:
                continue
            for e2 in by_start[middle].edge_maps:
                e1 = stable._reembed_morphism(e1, e2.source.win)
                iso = modules.find_isomorphism(e1.target, e2.source)
                h = modules.compose(e2, modules.compose(iso, e1))
                if not h.is_zero():
                    out.append(h)
    return out


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3),
                                 PrimeField(101)], ids=str)
def test_composites_of_mesh_edges_are_reducible(ex4_win, fld):
    comp = strings.knit_component(ex4_win, StringWord("2@0", ()), 6, fld)
    assert [certified(e).kind != "not_irreducible"
            for e in mesh_edges(comp)] == [True] * 11
    composites = consecutive_composites(comp)
    assert [certified(h).reason for h in composites] == [RAD2] * 12


def universe_agrees(comp, fld, maxdim):
    """Each certified verdict on a mesh edge next to the universe
    certificate's, as (exact, universe) pairs of "in rad²" flags."""
    pairs = []
    for e in mesh_edges(comp):
        universe = strings.decomposition_candidates(e.source.win, fld,
                                                    maxdim)
        pairs.append((certified(e).reason == RAD2,
                      stable.rad_square_membership(e, universe)))
    return pairs


def test_certificate_matches_universe_on_certify_edges(ex4):
    win = build_repetitive_window(ex4, -3, 5)
    comp = strings.knit_component(win, StringWord("2@0", ()), 3, QQ)
    assert universe_agrees(comp, QQ, 8) == [(False, False)] * 5


@pytest.mark.parametrize("fld", [QQ, PrimeField(2)], ids=str)
def test_certificate_matches_universe_on_two_loop_meshes(fld):
    win = build_repetitive_window(parse_presentation(TWOLOOP_TEXT), -2, 5)
    comp = strings.knit_component(win, StringWord("1@1", ()), 8, fld)
    assert universe_agrees(comp, fld, 4) == [(False, False)] * 16


def test_certificate_builds_no_universe(ex4, monkeypatch):
    win = build_repetitive_window(ex4, -3, 5)
    comp = strings.knit_component(win, StringWord("2@0", ()), 3, QQ)
    calls = []
    for name in ("enumerate_strings", "decomposition_candidates"):
        real = getattr(strings, name)
        monkeypatch.setattr(strings, name,
                            lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    verdicts = [str(stable.classify_irreducible(e, certify=True,
                                                universe_dim=8))
                for e in mesh_edges(comp)]
    assert calls == []
    assert verdicts == ["sirr(0)"] * 5


@pytest.mark.parametrize("as_word", [False, True],
                         ids=["window-projective", "string-word"])
def test_projective_injective_source(a2_win, as_word):
    # P -> P/soc P is the left almost split map of P itself; P is given
    # either as a window projective or as the string module of its
    # uniserial word, where no almost split sequence starts.
    P = a2_win.projective("1", 1, QQ)
    if as_word:
        P = strings.string_module(
            a2_win, StringWord("1@1", (("a@1", 1), ("hat_a@1", 1))), QQ)
        with pytest.raises(strings.ArInjectiveError):
            strings.ar_sequence(a2_win, P.meta["word"], QQ)
    soc_quot = modules.kernel_cokernel(modules.socle(P)[1]).coker_proj
    assert str(certified(soc_quot)) == "sepic"
    # P -> top P factors through P/soc P by a radical map.
    assert certified(modules.socle_radical(P).top_proj).reason == RAD2


def test_projective_target_without_source_word(a2_win):
    # rad P -> P is the right almost split map into P; the radical of a
    # window projective carries no word.
    P = a2_win.projective("1", 0, QQ)
    rad, incl = radical_of_projective(P)
    assert str(certified(incl)) == "sirr(0)"


def test_source_without_word_or_projective_end(a2_win):
    # The socle inclusion S(2@1) -> M(a@1), once with the socle as a bare
    # submodule and once as the string module of its trivial word.
    m = strings.string_module(a2_win, StringWord("1@1", (("a@1", 1),)), QQ)
    soc, soc_incl = modules.socle(m)
    with pytest.raises(modules.ModuleError, match="no almost split map"):
        certified(soc_incl)
    s = strings.string_module(a2_win, StringWord("2@1", ()), QQ)
    assert str(certified(modules.ModuleMorphism(s, m, soc_incl.blocks))) \
        == "sirr(1)"
