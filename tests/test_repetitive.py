import random

import pytest

from repstable.fields import PrimeField, QQ
from repstable.presentation import PathWord, parse_presentation
from repstable.repetitive import (
    WindowError,
    build_repetitive_window,
    maximal_paths,
    quotient_by_socle,
    radical_of_projective,
)
from repstable import modules

from repetitive_model import RepetitiveElement, identity_at, repetitive_product


def test_maximal_paths(a2, a3, loop, ex4, point):
    assert [str(p) for p in maximal_paths(a2)] == ["a"]
    assert [str(p) for p in maximal_paths(a3)] == ["a", "b"]
    assert [str(p) for p in maximal_paths(loop)] == ["l"]
    assert [str(p) for p in maximal_paths(ex4)] == ["alpha", "lam*beta*theta"]
    assert [str(p) for p in maximal_paths(point)] == ["e(1)"]


def test_a2_window_is_line_with_cube_zero(a2):
    # Oracle: the trivial extension of the path algebra of 1 -> 2 is
    # self-injective Nakayama with vanishing radical cube; its graded
    # cover is a line quiver in which every length-3 path vanishes.
    win = build_repetitive_window(a2, 0, 3)
    q = win.presentation.quiver
    assert len(q.vertices) == 8
    assert sorted(q.arrows) == ["a@0", "a@1", "a@2", "a@3",
                                "hat_a@0", "hat_a@1", "hat_a@2"]
    for v in q.vertices:
        assert len(q.arrows_out(v)) <= 1 and len(q.arrows_in(v)) <= 1
    rels = win.presentation.relations
    assert all(r.kind == "monomial" and len(r.path) == 3 for r in rels)
    assert len(rels) == 5  # the five composable length-3 windows


def test_point_window_is_connector_line(point):
    # Oracle: the dual bimodule is one dimensional, so the repetitive
    # algebra is the graded cover of the dual numbers: a line of
    # connector arrows with vanishing squares.
    win = build_repetitive_window(point, 0, 3)
    q = win.presentation.quiver
    assert sorted(q.arrows) == ["hat_1@0", "hat_1@1", "hat_1@2"]
    rels = win.presentation.relations
    assert all(r.kind == "monomial" and len(r.path) == 2 for r in rels)
    assert len(rels) == 2


def test_ex4_relation_families(ex4):
    win = build_repetitive_window(ex4, 0, 3)
    mono = sorted(tuple(a.split("@")[0] for a in r.path.arrows)
                  for r in win.presentation.relations if r.kind == "monomial")
    bino = sorted((tuple(a.split("@")[0] for a in r.path.arrows),
                   tuple(a.split("@")[0] for a in r.other.arrows))
                  for r in win.presentation.relations if r.kind == "binomial")
    # Base relations in every degree plus the connector families.
    assert ("alpha", "theta") in mono
    assert ("lam", "lam") in mono
    assert ("beta", "hat_alpha") in mono
    assert ("hat_lam", "beta") in mono
    assert ("alpha", "hat_alpha", "alpha") in mono
    assert ("hat_alpha", "alpha", "hat_alpha") in mono
    assert ("lam", "beta", "theta", "hat_lam", "lam") in mono
    assert ("beta", "theta", "hat_lam", "lam", "beta") in mono
    assert ("theta", "hat_lam", "lam", "beta", "theta") in mono
    assert ("hat_lam", "lam", "beta", "theta", "hat_lam") in mono
    pats = {frozenset(p) for p in bino}
    assert frozenset(((("lam", "beta", "theta", "hat_lam")),
                      (("beta", "theta", "hat_lam", "lam")))) in pats
    assert frozenset(((("hat_alpha", "alpha")),
                      (("theta", "hat_lam", "lam", "beta")))) in pats


def test_window_guards(a2, ex4):
    with pytest.raises(WindowError):
        build_repetitive_window(a2, 0, 1)
    bad = parse_presentation(
        "vertices 0 1 2 3\narrow a : 0 -> 1\narrow b : 0 -> 2\n"
        "arrow c : 0 -> 3\n")
    with pytest.raises(WindowError):
        build_repetitive_window(bad, 0, 3)


def test_degree_shift_equivariance(a3):
    w1 = build_repetitive_window(a3, 0, 3)
    w2 = build_repetitive_window(a3, 1, 4)
    text1, side1 = w1.serialize()
    text2, side2 = w2.serialize()
    shifted = text2
    for z in (1, 2, 3, 4):
        shifted = shifted.replace("@%d" % z, "@%d" % (z - 1))
    assert shifted == text1
    assert len(side1.splitlines()) == len(side2.splitlines())


def test_windows_agree_on_overlap(ex4):
    small = build_repetitive_window(ex4, 0, 3)
    big = build_repetitive_window(ex4, -2, 5)
    small_rels = {str(r) for r in small.presentation.relations}
    big_rels = {str(r) for r in big.presentation.relations}
    assert small_rels <= big_rels
    for a, arr in small.presentation.quiver.arrows.items():
        barr = big.presentation.quiver.arrows[a]
        assert (arr.source, arr.target) == (barr.source, barr.target)


def test_serialization_roundtrip(a3):
    from repstable.repetitive import parse_window
    win = build_repetitive_window(a3, 0, 3)
    dsl, sidecar = win.serialize()
    again = parse_window(a3, sidecar)
    assert again.serialize() == (dsl, sidecar)


# -- projective-injective modules -------------------------------------------

def test_a2_projective_dims_and_loewy(a2_win, field):
    # Oracle: path count from the window vertex; all length-3 paths vanish.
    P = a2_win.projective("1", 0, field)
    assert P.support_degrees() == [0, 1]
    assert sum(P.dim(v) for v in P.dims if a2_win.degree(v) == 0) == 2
    assert sum(P.dim(v) for v in P.dims if a2_win.degree(v) == 1) == 1
    sr = modules.socle_radical(P)
    dims = []
    cur = P
    while cur.total_dim():
        s = modules.socle_radical(cur)
        dims.append(cur.total_dim() - s.rad.total_dim())
        cur = s.rad
    assert dims == [1, 1, 1]  # Loewy length 3


def test_projective_socle_simple(a2_win, a3_win, loop_win, ex4_win, field):
    for win in (a2_win, a3_win, loop_win, ex4_win):
        for z in (win.lo, win.lo + 1):
            for v in sorted(win.base.quiver.vertices):
                P = win.projective(v, z, field)
                assert modules.socle_radical(P).soc.total_dim() == 1


def test_ex4_projective_dimensions(ex4_win, field):
    # dim P-hat(v, z) = dim P_v + dim I_v over the base algebra.
    expected = {"1": 5, "2": 6, "3": 3, "4": 8}
    for v, d in expected.items():
        assert ex4_win.projective(v, 0, field).total_dim() == d


def test_radical_of_projective(a2_win, ex4_win, field):
    P = a2_win.projective("1", 0, field)
    rad, incl = radical_of_projective(P)
    assert rad.total_dim() == 2
    incl.validate()
    # upper-degree block of the inclusion is an identity
    blk = incl.block(a2_win.vname("1", 1))
    assert blk == [[field.one()]]
    # simple lower part: the radical of the vertex-1 projective of the
    # bundled example is concentrated in one degree.
    P1 = ex4_win.projective("1", 0, field)
    rad1, _ = radical_of_projective(P1)
    assert rad1.support_degrees() == [1]
    # socle inside radical
    sr = modules.socle_radical(P)
    assert sr.soc.total_dim() <= rad.total_dim()


def test_quotient_by_socle(a2_win, field):
    P = a2_win.projective("1", 0, field)
    quot, proj = quotient_by_socle(P)
    assert quot.total_dim() == 2
    proj.validate()
    rad, _ = radical_of_projective(P)
    rq, _ = quotient_by_socle_pair(P)
    assert sorted(rq.dims.items()) == sorted(quot.dims.items())


def quotient_by_socle_pair(P):
    return quotient_by_socle(P)


def test_rad_mod_soc_both_ways(a2_win, field):
    # (rad P)/(soc P) has the same dimensions computed either way.
    P = a2_win.projective("1", 0, field)
    rad, rad_incl = radical_of_projective(P)
    sr = modules.socle_radical(P)
    # socle sits inside the radical: quotient of rad by soc
    soc_in_rad = modules.hom_basis(sr.soc, rad)
    assert soc_in_rad
    kc = modules.kernel_cokernel(soc_in_rad[0])
    quot, _ = quotient_by_socle(P)
    srq = modules.socle_radical(quot)
    assert kc.coker.total_dim() == srq.rad.total_dim()


def test_relations_hold_on_projectives(ex4_win, field):
    # Every generator family restricted to the window annihilates every
    # projective; validate() checks exactly this.
    for z in (0, 1):
        for v in sorted(ex4_win.base.quiver.vertices):
            ex4_win.projective(v, z, field).validate()


def test_frobenius_on_interior(a2_win, field):
    # Interior projectives are the injective hulls of their socles.
    P = a2_win.projective("1", 1, field)
    sr = modules.socle_radical(P)
    hull, emb = modules.injective_hull(sr.soc)
    assert modules.find_isomorphism(hull, P) is not None


# -- element-level product ---------------------------------------------------

def test_identity_idempotent(a2):
    e = identity_at(a2, 0)
    assert repetitive_product(e, e).parts == e.parts


def test_dual_times_dual_vanishes(a2):
    phi = RepetitiveElement.make(a2, [(0, "dual", PathWord("1", ("a",)), 1)])
    psi = RepetitiveElement.make(a2, [(0, "dual", PathWord("1", ()), 1),
                                      (1, "dual", PathWord("2", ()), 1)])
    assert repetitive_product(phi, psi).is_zero()
    assert repetitive_product(psi, phi).is_zero()


def _random_element(pres, rng, degrees=(0, 1)):
    entries = []
    basis = pres.path_basis()
    for z in degrees:
        for p in basis:
            c = rng.randrange(-2, 3)
            if c:
                entries.append((z, "alg", p, c))
            c = rng.randrange(-2, 3)
            if c:
                entries.append((z, "dual", p, c))
    return RepetitiveElement.make(pres, entries)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_product_associative_and_bilinear(ex4, seed):
    rng = random.Random(seed)
    x = _random_element(ex4, rng)
    y = _random_element(ex4, rng)
    z = _random_element(ex4, rng)
    xy_z = repetitive_product(repetitive_product(x, y), z)
    x_yz = repetitive_product(x, repetitive_product(y, z))
    assert xy_z.parts == x_yz.parts
    lhs = repetitive_product(x + y, z)
    rhs = repetitive_product(x, z) + repetitive_product(y, z)
    assert lhs.parts == rhs.parts


# -- the window's path algebra against the definitional model -----------------

TWOLOOP = ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
           "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n")


def _model_image(win, conns, path):
    """The model element of a window basis path: a path without a connector
    is itself in its degree, and x, hat_p, y (x in degree z, y in degree
    z + 1) is y·p*·x, the dual functional of p acted on by both sides.
    ``conns`` maps each connector name to its maximal path and degree."""
    base = win.base
    at = [i for i, an in enumerate(path.arrows) if an in conns]
    assert len(at) <= 1, path

    def lowered(source, arrows):
        v, z = win.vertex_info(source)
        return z, PathWord(v, tuple(an.rsplit("@", 1)[0] for an in arrows))

    if not at:
        z, p = lowered(path.source, path.arrows)
        return RepetitiveElement.make(base, [(z, "alg", p, 1)])
    i = at[0]
    p, z = conns[path.arrows[i]]
    _, x = lowered(path.source, path.arrows[:i])
    _, y = lowered(win.vname(p.source, z + 1), path.arrows[i + 1:])
    left = RepetitiveElement.make(base, [(z + 1, "alg", y, 1)])
    dual = RepetitiveElement.make(base, [(z, "dual", p, 1)])
    right = RepetitiveElement.make(base, [(z, "alg", x, 1)])
    return repetitive_product(repetitive_product(left, dual), right)


@pytest.mark.parametrize("name", ["a2", "a3", "loop", "point", "twoloop",
                                  "ex4"])
def test_window_multiplies_like_the_model(request, name):
    # The window path algebra is the repetitive algebra: basis paths map to
    # distinct single terms of Λ ⋉ DΛ, and the normal form of every
    # composite maps to the product of the images.
    pres = (parse_presentation(TWOLOOP) if name == "twoloop"
            else request.getfixturevalue(name))
    win = build_repetitive_window(pres, -1, 3)
    wpres = win.presentation
    basis = wpres.path_basis()
    conns = {win.conn_name(p, z): (p, z)
             for z in range(win.lo, win.hi) for p in win.maximal}
    image = {}
    for path in basis:
        elem = _model_image(win, conns, path)
        assert len(elem.parts) == 1, (str(path), elem.parts)
        image[path] = elem
    assert len({e.parts for e in image.values()}) == len(basis)
    pairs = 0
    for first in basis:
        for then in basis:
            if first.target(wpres.quiver) != then.source:
                continue
            pairs += 1
            nf = wpres.path_normal_form(
                PathWord(first.source, first.arrows + then.arrows))
            product = repetitive_product(image[then], image[first])
            if nf.is_zero:
                assert product.is_zero(), (str(first), str(then))
            else:
                (z, kind, key, c), = image[nf.path].parts
                assert product.parts == ((z, kind, key, c),), (
                    str(first), str(then))
    assert pairs > len(basis)
