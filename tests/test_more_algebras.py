"""Sweeps over additional gentle presentations: a longer linear quiver,
two arrows into one vertex, and a two-loop algebra whose unique maximal
path crosses every arrow."""

import pytest

from repstable.fields import QQ
from repstable.presentation import parse_presentation, validate_gentle
from repstable.repetitive import build_repetitive_window, maximal_paths
from repstable import modules, stable, strings
from repstable.strings import StringWord

CASES = {
    "a4": ("vertices 1 2 3 4\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
           "arrow c : 3 -> 4\nzero a b\n", "1"),
    "fork": ("vertices 1 2 3\narrow a : 1 -> 2\narrow b : 3 -> 2\n", "1"),
    "twoloop": ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
                "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n", "1"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    text, seed_vertex = CASES[request.param]
    pres = parse_presentation(text)
    assert validate_gentle(pres).is_gentle
    win = build_repetitive_window(pres, -2, 5)
    return request.param, pres, win, seed_vertex


def test_twoloop_single_maximal_path():
    pres = parse_presentation(CASES["twoloop"][0])
    assert [str(p) for p in maximal_paths(pres)] == ["l*a*m"]


def test_frobenius(case):
    _, pres, win, _ = case
    for v in sorted(pres.quiver.vertices):
        P = win.projective(v, 0, QQ)
        soc = modules.socle_radical(P).soc
        hull, _ = modules.injective_hull(soc)
        target = (modules.reembed(P, hull.win)
                  if hull.win is not P.win else P)
        assert modules.find_isomorphism(hull, target) is not None


def test_knitted_shapes(case):
    name, pres, win, seed_vertex = case
    seed = StringWord(win.vname(seed_vertex, 1), ())
    comp = strings.knit_component(win, seed, 8, QQ)
    assert len(comp.meshes) == 8 and not comp.truncated
    for mesh in comp.meshes:
        tri, phat = stable.ar_triangle_from_sequence(mesh.seq)
        finding = stable.verify_shape_table(tri, phat)
        assert finding.passed, (name, mesh.start, finding.violations)


def _entries(*maps):
    """Every entry of the blocks of ``maps`` and of the actions of their
    sources and targets."""
    for h in maps:
        for mat in list(h.blocks.values()) + [
                a for m in (h.source, h.target) for a in m.acts.values()]:
            for row in mat:
                yield from row


def test_twoloop_triangles_stay_on_ints():
    # Every entry of the two-loop component's systems is +-1 and every
    # quotient integral, so over QQ no entry may leave int; a stray
    # Fraction(1) would put every operation on it on the slow path.
    win = build_repetitive_window(parse_presentation(CASES["twoloop"][0]),
                                  -2, 5)
    comp = strings.knit_component(win, StringWord(win.vname("1", 1), ()),
                                  8, QQ)
    assert len(comp.meshes) == 8
    for mesh in comp.meshes:
        tri, _ = stable.ar_triangle_from_sequence(mesh.seq)
        maps = [mesh.seq.f, mesh.seq.g, tri.h, tri.hp, tri.hpp,
                *mesh.edge_maps]
        types = {type(x) for x in _entries(*maps)}
        assert types == {int}, (mesh.start, types)
