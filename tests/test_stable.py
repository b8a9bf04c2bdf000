import random

import pytest

from repstable.fields import PrimeField, QQ
from repstable.presentation import parse_presentation
from repstable.repetitive import (
    build_repetitive_window,
    quotient_by_socle,
    radical_of_projective,
)
from repstable import modules, stable, strings
from repstable.strings import StringWord


def test_factor_zero_morphism(a2_win, field):
    P = a2_win.projective("1", 1, field)
    s = modules.simple_module(a2_win, field, "2@1")
    zero = modules.ModuleMorphism(s, P, {})
    assert stable.factor_through_projinj(zero) is not None


def test_factor_identity_of_nonprojective(a2_win, field):
    s = modules.simple_module(a2_win, field, "2@1")
    assert stable.factor_through_projinj(modules.identity_morphism(s)) is None


def test_factor_recovers_explicit_composite(a2_win, field):
    # A map explicitly built through a projective-injective is recognized;
    # the solver need not return the same witness, only a valid one.
    P = a2_win.projective("1", 1, field)
    rad, incl = radical_of_projective(P)
    quot, proj = quotient_by_socle(P)
    h = modules.compose(proj, incl)  # rad -> P -> P/soc
    w = stable.factor_through_projinj(h)
    assert w is not None
    hull, iota, descent = w
    assert (modules.compose(descent, iota) - h).is_zero()


def test_stable_equal_reflexive_and_perturbed(a2_win, field):
    P = a2_win.projective("1", 1, field)
    rad, incl = radical_of_projective(P)
    assert stable.stable_equal(incl, incl)
    quot, proj = quotient_by_socle(P)
    # perturb a morphism rad -> P/soc by a projective-factoring term
    base = modules.compose(proj, incl)
    assert stable.stable_equal(base, base + base)  # base itself factors


def test_cosyzygy_of_socle(a2_win, field):
    P = a2_win.projective("1", 1, field)
    sr = modules.socle_radical(P)
    om, data = stable.cosyzygy(sr.soc)
    quot, _ = quotient_by_socle(P)
    if om.win is not quot.win:
        quot = modules.reembed(quot, om.win)
    assert modules.find_isomorphism(om, quot) is not None


def test_cosyzygy_of_projective_vanishes(a2_win, field):
    P = a2_win.projective("1", 1, field)
    om, _ = stable.cosyzygy(P)
    assert om.total_dim() == 0


def test_omega_inverse_then_omega(ex4_win, field):
    # The syzygy of the cosyzygy is stably the original module for
    # projective-free input; certified by an explicit isomorphism.
    for w in [StringWord("2@0", ()), StringWord("1@0", ())]:
        m = strings.string_module(ex4_win, w, field)
        om, _ = stable.cosyzygy(m)
        back, _, _, _ = stable.syzygy(om)
        assert modules.find_isomorphism(back, modules.reembed(
            m, back.win)) is not None


def test_triangle_split_sequence_has_zero_connecting(a2_win, field):
    P = a2_win.projective("1", 1, field)
    s = modules.simple_module(a2_win, field, "2@2")
    total, incls, projs = modules.direct_sum([s, P])
    seq = modules.ShortExactSeq(incls[0], projs[1])
    tri = stable.triangle_from_ses(seq)
    assert stable.factor_through_projinj(tri.hpp) is not None


def test_triangle_socle_sequence_connecting_iso(a2_win, field):
    P = a2_win.projective("1", 1, field)
    sr = modules.socle_radical(P)
    kc = modules.kernel_cokernel(sr.soc_incl)
    seq = modules.ShortExactSeq(sr.soc_incl, kc.coker_proj)
    tri = stable.triangle_from_ses(seq)
    om, _ = stable.cosyzygy(sr.soc)
    # the connecting map P/soc -> cosyzygy(soc) is a stable isomorphism;
    # here both sides are projective-free so it is a plain isomorphism
    assert tri.hpp.rank() == tri.omega.total_dim() == tri.hpp.source.total_dim()
    assert modules.find_isomorphism(tri.hpp.source,
                                    modules.reembed(om, tri.omega.win)) is not None


def test_classify_radical_inclusion(a2_win, field):
    # The radical inclusion into a projective with nonzero lower radical
    # is split except at the lower degree.
    P = a2_win.projective("1", 0, field)
    rad, incl = radical_of_projective(P)
    verdict = stable.classify_irreducible(incl)
    assert verdict.kind == "sirreducible" and verdict.degree == 0


def test_classify_certifies_non_irreducible(a2_win, field):
    P = a2_win.projective("1", 0, field)
    sr = modules.socle_radical(P)
    # soc -> P is not irreducible: it factors through rad P.
    verdict = stable.classify_irreducible(sr.soc_incl, certify=True,
                                          universe_dim=6)
    assert verdict.kind == "not_irreducible"


def test_classify_stable_perturbation_invariance(ex4_win, field):
    seq, win = strings.ar_sequence(
        ex4_win, StringWord("2@0", (("hat_alpha@0", 1),)), field)
    # the edge into the non-projective middle summand
    info, comp = [c for c in seq.meta["components"]
                  if c[0]["projective_at"] is None][0]
    v1 = stable.classify_irreducible(comp)
    hull, iota = modules.injective_hull(comp.source)
    rng = random.Random(5)
    vs = modules.hom_basis(hull, comp.target)
    pert = comp
    for h in vs:
        pert = pert + modules.compose(
            h, iota).scaled(field.of_int(rng.randrange(0, 3)))
    v2 = stable.classify_irreducible(pert)
    assert (v1.kind, v1.degree) == (v2.kind, v2.degree)
    # block-wise equality forced for irreducibles between projective-free
    # modules with an indecomposable end
    assert (pert - comp).is_zero()


def test_splitness_transfers_to_stable_representative(ex4_win, field):
    # Splitness verdicts agree between a morphism and any stably equal
    # representative (projective-free endpoints).
    seq, win = strings.ar_sequence(ex4_win, StringWord("1@0", ()), field)
    h = seq.f
    hull, iota = modules.injective_hull(h.source)
    for extra in modules.hom_basis(hull, h.target)[:3]:
        pert = h + modules.compose(extra, iota)
        assert stable.stable_equal(h, pert)
        assert modules.is_split_mono(h) == modules.is_split_mono(pert)
        assert modules.is_split_epi(h) == modules.is_split_epi(pert)


def test_check_ar_axioms_pass_and_split_fail(a2_win, field):
    w = StringWord("1@1", ())
    seq, win = strings.ar_sequence(a2_win, w, field)
    universe = [strings.string_module(win, u, field)
                for u in strings.enumerate_strings(win, 4)]
    universe.extend(win.all_projectives(field))
    rep = stable.check_ar_axioms(seq, universe)
    assert rep.ars1 and rep.ars2
    assert rep.art1 and rep.art2 and rep.art3 and rep.art3_star
    # a split sequence fails the first axiom
    P = win.projective("1", 1, field)
    s = modules.simple_module(win, field, "2@2")
    total, incls, projs = modules.direct_sum([s, P])
    split = modules.ShortExactSeq(incls[0], projs[1])
    rep = stable.check_ar_axioms(split, universe[:4])
    assert not rep.ars1


def test_check_ar_axioms_asks_for_each_hom_space_once(a3_win, field,
                                                    monkeypatch):
    seq, win = strings.ar_sequence(a3_win, StringWord("2@1", ()), field)
    universe = strings.decomposition_candidates(win, field, 4)
    asked = []  # the pairs themselves, so that no id is reused
    hom_basis = modules.hom_basis

    def recorded(m, n):
        asked.append((m, n))
        return hom_basis(m, n)

    monkeypatch.setattr(modules, "hom_basis", recorded)
    rep = stable.check_ar_axioms(seq, universe)
    assert rep.ars1 and rep.ars2 and rep.art3 and rep.art3_star
    pairs = [(id(m), id(n)) for m, n in asked]
    assert len(pairs) >= 2 * len(universe)
    assert len(set(pairs)) == len(pairs)


TWOLOOP = ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
           "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n")


@pytest.mark.parametrize("key", ["start_word", "end_word"])
def test_art1_rejects_a_wrongly_named_end_term(field, key):
    # art1 decomposes each end term against the word the sequence names.
    # M(a.m^-1) and M(a.m) have equal dimension vectors and are not
    # isomorphic, so naming one for the other must fail art1.
    win = build_repetitive_window(parse_presentation(TWOLOOP), 0, 3)
    seq, win = strings.ar_sequence(
        win, StringWord("1@1", (("a@1", 1), ("m@1", -1))), field)
    assert stable.check_ar_axioms(seq, []).art1
    ctx = strings.window_context(win)
    word = seq.meta[key]
    flipped = StringWord(word.source, word.letters[:-1]
                         + ((word.letters[-1][0], -word.letters[-1][1]),))
    assert ctx.is_valid(flipped)
    wrong = modules.ShortExactSeq(seq.f, seq.g, dict(seq.meta, **{
        key: strings.canonical_word(flipped, ctx.quiver)}))
    assert stable.check_ar_axioms(wrong, []).art1 is False


def test_art1_without_meta_uses_default_candidates(a2_win, field):
    seq, win = strings.ar_sequence(a2_win, StringWord("1@1", ()), field)
    bare = modules.ShortExactSeq(seq.f, seq.g)
    assert bare.meta is None
    assert stable.check_ar_axioms(bare, []).art1 is True


def test_ar_triangle_with_projective_middle(a2_win, field):
    seq, win = strings.ar_sequence(
        a2_win, StringWord("2@1", (("hat_a@1", 1),)), field)
    tri, phat = stable.ar_triangle_from_sequence(seq)
    assert phat is not None
    assert phat["start_iso"] is not None and phat["end_iso"] is not None
    # middle of the triangle is projective-free
    assert tri.h.target.total_dim() == 1


def test_ar_triangle_projective_free(ex4_win, field):
    seq, win = strings.ar_sequence(ex4_win, StringWord("1@0", ()), field)
    tri, phat = stable.ar_triangle_from_sequence(seq)
    assert phat is None
    assert tri.h.target.total_dim() == seq.f.target.total_dim()


def test_projective_middle_epi_mono_support(a2_win, a3_win, ex4_win, field):
    # On every sequence with a projective middle summand: the string part
    # of the left map is epi, the right map restricted to the string part
    # is mono, and the string part lives in two consecutive degrees.
    _, a3_bis = strings.projective_words(a3_win)
    a3_rad = [StringWord(k[0], tuple(k[1:])) for k, vz in a3_bis.items()
              if vz == ("2", 1)][0]
    cases = [
        (a2_win, StringWord("2@1", (("hat_a@1", 1),))),
        (a3_win, a3_rad),
        (ex4_win, StringWord("4@1", (("lam@1", 1), ("beta@1", 1),
                                     ("theta@1", 1)))),
    ]
    for win, w in cases:
        seq, win2 = strings.ar_sequence(win, w, field)
        assert seq.meta["projective"] is not None
        free = [c for info, c in seq.meta["components"]
                if info["projective_at"] is None]
        combined, _, _ = modules.direct_sum([c.target for c in free]) \
            if len(free) > 1 else (free[0].target, None, None)
        degs = combined.support_degrees()
        assert len(degs) <= 2
        if len(degs) == 2:
            assert degs[1] == degs[0] + 1
        # left map onto the string part is an epimorphism
        total_rank = 0
        if len(free) == 1:
            assert free[0].rank() == free[0].target.total_dim()
        else:
            total, incls, _ = modules.direct_sum([c.target for c in free])
            h = None
            for c, incl in zip(free, incls):
                term = modules.compose(incl, c)
                h = term if h is None else h + term
            assert h.rank() == total.total_dim()


def test_smonic_first_map_forces_sepic_second(ex4_win, field):
    # In any exact sequence with a degreewise split mono first map, the
    # second map is degreewise split epi.
    seq, win = strings.ar_sequence(
        ex4_win, StringWord("1@0", (("theta@0", -1), ("hat_alpha@0", 1))),
        field)
    c1 = stable.classify_irreducible(seq.f)
    c2 = stable.classify_irreducible(seq.g)
    assert c1.kind == "smonic" and c2.kind == "sepic"


def test_stable_hom_dimension_preserved_by_cosyzygy(ex4_win, field):
    def stable_hom_dim(a, b):
        basis = modules.hom_basis(a, b)
        if not basis:
            return 0
        hull, iota = modules.injective_hull(a)
        through = [modules.compose(v, iota)
                   for v in modules.hom_basis(hull, b)]
        from repstable import linalg

        def flat(h):
            vec = []
            for v in sorted(set(a.dims) & set(b.dims)):
                for row in h.block(v):
                    vec.extend(row)
            return vec

        full = [flat(h) for h in basis]
        sub = [flat(h) for h in through]
        rk_full = linalg.rank(field, full)
        rk_sub = linalg.rank(field, sub) if sub else 0
        return rk_full - rk_sub

    a = strings.string_module(ex4_win, StringWord("2@0", ()), field)
    b = strings.string_module(
        ex4_win, StringWord("1@0", (("theta@0", -1), ("hat_alpha@0", 1))),
        field)
    oa, _ = stable.cosyzygy(a)
    ob, _ = stable.cosyzygy(b)
    ob = modules.reembed(ob, oa.win) if ob.win is not oa.win else ob
    d1 = stable_hom_dim(a, b)
    a2 = modules.reembed(a, oa.win)
    b2 = modules.reembed(b, oa.win)
    d2 = stable_hom_dim(oa, ob)
    assert d1 == d2


def test_verify_shape_table_on_knitted(ex4_win, field):
    comp = strings.knit_component(ex4_win, StringWord("1@0", ()), 6, field)
    for mesh in comp.meshes:
        tri, phat = stable.ar_triangle_from_sequence(mesh.seq)
        finding = stable.verify_shape_table(tri, phat)
        assert finding.passed, finding.violations


def test_classify_stable_via_wrapper(ex4_win, field):
    seq, win = strings.ar_sequence(
        ex4_win, StringWord("2@0", (("hat_alpha@0", 1),)), field)
    info, comp = [c for c in seq.meta["components"]
                  if c[0]["projective_at"] is None][0]
    assert stable.classify_irreducible(comp).kind == "sepic"
    tri, phat = stable.ar_triangle_from_sequence(seq)
    assert stable.classify_irreducible(tri.hp).kind == "sirreducible"


def test_stable_morphism_zero_cache(a2_win, field):
    P = a2_win.projective("1", 1, field)
    rad, incl = radical_of_projective(P)
    quot, proj = quotient_by_socle(P)
    through = modules.compose(proj, incl)
    assert stable.factor_through_projinj(through) is not None


def slice_component_irreducible(h, z, universe_len):
    """Whether the degree-z component of a morphism, viewed over the base
    algebra, is irreducible: neither split nor in the span of composites
    of non-isomorphisms through the base string modules up to
    ``universe_len`` letters (the paper's "exactly one irreducible
    component").  The base string modules are the degree-z slices of the
    window string modules that lie in degree z: a ↦ a@z lifts the base
    words one-to-one onto the window words of that degree.

    It assumes indecomposable ends: :func:`modules.radical_hom` returns the
    whole Hom space when the dimension vectors differ, so for a
    decomposable target the split inclusions fall in the span and every
    map reads "in rad²"."""
    hz = h.slice(z)
    if modules.is_split_mono(hz) or modules.is_split_epi(hz):
        return False
    win = h.source.win
    quiver = win.presentation.quiver
    universe = [strings.string_module(win, w, hz.source.field).slice_view(z)
                for w in strings.enumerate_strings(win, universe_len,
                                                   interior_only=False)
                if {win.degree(v) for v in w.positions(quiver)} == {z}]
    return not stable.rad_square_membership(hz, universe)


def test_flagged_degree_component_is_irreducible(ex4_win, field):
    # In the split-except-at-one-degree case, the distinguished component
    # is itself irreducible over the base algebra.
    cases = [
        StringWord("2@0", (("hat_alpha@0", 1),)),   # second map into alpha
        StringWord("1@0", ()),                      # both maps of this mesh
    ]
    checked = 0
    for w in cases:
        seq, win = strings.ar_sequence(ex4_win, w, field)
        tri, phat = stable.ar_triangle_from_sequence(seq)
        for hmap in (tri.h, tri.hp):
            verdict = stable.classify_irreducible(hmap)
            if verdict.kind == "sirreducible":
                assert slice_component_irreducible(
                    hmap, verdict.degree, universe_len=5)
                checked += 1
    assert checked >= 2


def test_slice_certificate_rejects_reducible(a2_win, field):
    # The socle inclusion of a projective is not irreducible; its unique
    # nonzero degree component factors through the radical.
    P = a2_win.projective("1", 0, field)
    sr = modules.socle_radical(P)
    z = a2_win.degree(sr.soc.sorted_support()[0])
    assert not slice_component_irreducible(sr.soc_incl, z,
                                                  universe_len=5)


# -- inputs that each check must reject ----------------------------------------

@pytest.fixture
def a2_triangle(a2_win, field):
    seq, _ = strings.ar_sequence(
        a2_win, StringWord("2@1", (("hat_a@1", 1),)), field)
    return stable.ar_triangle_from_sequence(seq)[0]


# (class of h, class of h', projective at, the one violation).  P(1@1) has
# a 2-dimensional lower part and a simple upper part, P(2@1) a simple lower
# part and a 2-dimensional upper part.
SHAPE_VIOLATIONS = [
    ("smonic", "smonic", None,
     "pair (smonic, smonic) is not an admissible cell"),
    ("sirreducible", "smonic", "1",
     "projective dichotomy predicts sirreducible, found smonic"),
    ("sirreducible", "sirreducible", "2",
     "projective dichotomy predicts smonic, found sirreducible"),
    ("sepic", "sirreducible", "2",
     "split-epi start but the injective part is not simple"),
    ("smonic", "sepic", "1",
     "split-mono start with a projective middle summand"),
]


@pytest.mark.parametrize("kind_h,kind_hp,proj_at,violation",
                         SHAPE_VIOLATIONS)
def test_shape_table_rejects(a2_win, field, a2_triangle, monkeypatch,
                             kind_h, kind_hp, proj_at, violation):
    tri = a2_triangle
    classes = {id(tri.h): stable.IrredClass(kind_h, degree=1),
               id(tri.hp): stable.IrredClass(kind_hp, degree=1)}
    monkeypatch.setattr(stable, "classify_irreducible",
                        lambda h: classes[id(h)])
    phat_info = None
    if proj_at is not None:
        phat_info = {"module": a2_win.projective(proj_at, 1, field),
                     "degree": 1}
    finding = stable.verify_shape_table(tri, phat_info)
    assert not finding.passed
    assert finding.violations == [violation]


@pytest.mark.parametrize("call,square", [
    (0, "ladder square u∘f = ι fails"),
    (1, "ladder square h''∘g = π∘u fails"),
], ids=["u-solve", "hpp-solve"])
def test_ladder_squares_reject_a_zero_solution(a2_win, field, monkeypatch,
                                               call, square):
    # With the hull cached by a first call, triangle_from_ses solves for u
    # and then for h''; a zero solution must fail its own ladder square.
    seq, _ = strings.ar_sequence(a2_win, StringWord("1@1", ()), field)
    stable.triangle_from_ses(seq)
    solve, calls = modules.solve_morphisms, []

    def zero_on_call(rhs, terms):
        sol = solve(rhs, terms)
        calls.append(rhs)
        if len(calls) - 1 == call:
            return [modules.ModuleMorphism(x.source, x.target, {})
                    for x in sol]
        return sol

    monkeypatch.setattr(modules, "solve_morphisms", zero_on_call)
    with pytest.raises(modules.ModuleError, match=square):
        stable.triangle_from_ses(seq)


def _unlinked(win, field, dims):
    """A module supported on vertices no arrow joins."""
    return modules.GradedModule(win, field, dims, {})


@pytest.mark.parametrize("blocks", [
    {"1@1": [[1], [0]], "1@2": [[1, 0]]},   # split mono, then split epi
    {},                                      # non-split in both degrees
])
def test_mixed_profile_raises(a2_win, field, blocks):
    src = _unlinked(a2_win, field, {"1@1": 1, "1@2": 2})
    tgt = _unlinked(a2_win, field, {"1@1": 2, "1@2": 1})
    if not blocks:
        tgt = src
    with pytest.raises(stable.TrichotomyError):
        stable.classify_irreducible(modules.ModuleMorphism(src, tgt, blocks))


def test_art2_fails_on_a_split_sequence(a2_win, field):
    m = modules.simple_module(a2_win, field, "2@2")
    n = modules.simple_module(a2_win, field, "2@1")
    total, incls, projs = modules.direct_sum([m, n])
    rep = stable.check_ar_axioms(modules.ShortExactSeq(incls[0], projs[1]),
                                 [])
    assert rep.art2 is False


def test_zero_start(a2_win, field):
    zero = _unlinked(a2_win, field, {})
    assert stable.ensure_module_margin(zero) is zero
    assert stable.cosyzygy(zero) == (zero, None)
    n = modules.simple_module(a2_win, field, "2@1")
    h = modules.ModuleMorphism(zero, n, {})
    hull, iota, descent = stable.factor_through_projinj(h)
    assert hull is zero and (modules.compose(descent, iota) - h).is_zero()
    seq = modules.ShortExactSeq(h, modules.identity_morphism(n))
    assert modules.check_ses(seq).global_exact
    with pytest.raises(modules.ModuleError, match="zero start"):
        stable.triangle_from_ses(seq)
