import ast
import os
import sys

import pytest

from repstable.fields import PrimeField, QQ
from repstable.presentation import parse_presentation
from repstable.repetitive import (
    build_repetitive_window,
    radical_of_projective,
)
from repstable import linalg, modules, strings


def simple(win, field, v, z):
    return modules.simple_module(win, field, win.vname(v, z))


def test_hom_simple_schur(a2_win, field):
    s = simple(a2_win, field, "1", 1)
    assert len(modules.hom_basis(s, s)) == 1


def test_hom_disjoint_simples(a2_win, field):
    s = simple(a2_win, field, "1", 1)
    t = simple(a2_win, field, "2", 1)
    assert modules.hom_basis(s, t) == []


def test_hom_p_to_rad_matches_prime_field(a2, field):
    # Frozen by hand: no nonzero map from the length-3 projective to its
    # radical; cross-checked by re-running the rank computation over a
    # prime field.
    from repstable.repetitive import build_repetitive_window
    for fld in (QQ, PrimeField(101)):
        win = build_repetitive_window(a2, 0, 3)
        P = win.projective("1", 0, fld)
        rad, _ = radical_of_projective(P)
        assert len(modules.hom_basis(P, rad)) == 0


def test_splitness_identity(a2_win, field):
    P = a2_win.projective("1", 0, field)
    ident = modules.identity_morphism(P)
    assert modules.is_split_mono(ident) and modules.is_split_epi(ident)
    assert all(m and e for m, e in modules.splitness(ident).values())


def test_splitness_socle_inclusion(a2_win, field):
    P = a2_win.projective("1", 0, field)
    sr = modules.socle_radical(P)
    assert not modules.is_split_mono(sr.soc_incl)
    assert not modules.is_split_epi(sr.soc_incl)


def test_splitness_summand_inclusion(a2_win, field):
    P = a2_win.projective("1", 0, field)
    s = simple(a2_win, field, "2", 2)
    total, incls, projs = modules.direct_sum([P, s])
    assert modules.is_split_mono(incls[0])
    assert modules.is_split_epi(projs[1])


def test_kernel_cokernel_trivial_cases(a2_win, field):
    P = a2_win.projective("1", 0, field)
    zero = modules.ModuleMorphism(P, P, {})
    kc = modules.kernel_cokernel(zero)
    assert kc.ker.total_dim() == P.total_dim()
    assert kc.coker.total_dim() == P.total_dim()
    kc = modules.kernel_cokernel(modules.identity_morphism(P))
    assert kc.ker.total_dim() == 0 and kc.coker.total_dim() == 0


def test_kernel_cokernel_radical_inclusion(a2_win, field):
    P = a2_win.projective("1", 0, field)
    rad, incl = radical_of_projective(P)
    kc = modules.kernel_cokernel(incl)
    assert kc.ker.total_dim() == 0
    assert kc.coker.total_dim() == P.total_dim() - rad.total_dim() == 1


def test_socle_radical_simple(a2_win, field):
    s = simple(a2_win, field, "2", 1)
    sr = modules.socle_radical(s)
    assert sr.soc.total_dim() == 1 and sr.rad.total_dim() == 0
    assert sr.top.total_dim() == 1


def test_socle_is_the_socle_of_socle_radical(a3_win, ex4_win, field):
    # socle() is the socle half of socle_radical(), basis and all.
    for win in (a3_win, ex4_win):
        mods = [win.projective(v, 0, field)
                for v in sorted(win.base.quiver.vertices)]
        mods += [strings.string_module(win, w, field)
                 for w in strings.enumerate_strings(win, 2)[:20]]
        mods.append(modules.direct_sum(mods[:2])[0])
        for m in mods:
            soc, soc_incl = modules.socle(m)
            sr = modules.socle_radical(m)
            assert soc.key() == sr.soc.key()
            assert (modules.morphism_to_text(soc_incl)
                    == modules.morphism_to_text(sr.soc_incl))


def test_socle_distributes_over_sums(a2_win, field):
    P = a2_win.projective("1", 0, field)
    Q = a2_win.projective("2", 1, field)
    total, _, _ = modules.direct_sum([P, Q])
    a = modules.socle_radical(total).soc.total_dim()
    b = (modules.socle_radical(P).soc.total_dim()
         + modules.socle_radical(Q).soc.total_dim())
    assert a == b


def test_hull_of_socle_is_projective(a2_win, field):
    P = a2_win.projective("1", 0, field)
    sr = modules.socle_radical(P)
    hull, emb = modules.injective_hull(sr.soc)
    assert modules.find_isomorphism(hull, P) is not None


def test_hull_of_projective_is_isomorphism(a2_win, field):
    P = a2_win.projective("1", 1, field)
    hull, emb = modules.injective_hull(P)
    assert emb.rank() == P.total_dim() == hull.total_dim()


def test_hull_of_radical_indecomposable(a2_win, field):
    P = a2_win.projective("1", 0, field)
    rad, _ = radical_of_projective(P)
    hull, emb = modules.injective_hull(rad)
    assert hull.total_dim() == 3
    assert len(modules.decompose(hull)) == 1


def test_hull_uniqueness_certified(a2_win, field):
    # Two isomorphic inputs produce isomorphic hulls, certified by an
    # explicit isomorphism.
    P = a2_win.projective("1", 0, field)
    rad, _ = radical_of_projective(P)
    w = strings.StringWord(a2_win.vname("2", 0), (("hat_a@0", 1),))
    other = strings.string_module(a2_win, w, field)
    assert modules.find_isomorphism(rad, other) is not None
    h1, _ = modules.injective_hull(rad)
    h2, _ = modules.injective_hull(other)
    assert modules.find_isomorphism(h1, h2) is not None


def test_check_ses_split(a2_win, field):
    P = a2_win.projective("1", 0, field)
    s = simple(a2_win, field, "2", 2)
    total, incls, projs = modules.direct_sum([P, s])
    seq = modules.ShortExactSeq(incls[0], projs[1])
    rep = modules.check_ses(seq)
    assert rep.global_exact and rep.agree
    assert all(mono for mono, _ in modules.splitness(incls[0]).values())


def test_check_ses_socle_sequence(a2_win, field):
    P = a2_win.projective("1", 0, field)
    sr = modules.socle_radical(P)
    kc = modules.kernel_cokernel(sr.soc_incl)
    seq = modules.ShortExactSeq(sr.soc_incl, kc.coker_proj)
    rep = modules.check_ses(seq)
    assert rep.global_exact and rep.agree
    assert not modules.is_split_mono(sr.soc_incl)


def test_degreewise_iff_global(a2_win, field):
    # On valid sequences both notions agree; also on a non-exact pair.
    P = a2_win.projective("1", 0, field)
    rad, incl = radical_of_projective(P)
    kc = modules.kernel_cokernel(incl)
    rep = modules.check_ses(modules.ShortExactSeq(incl, kc.coker_proj))
    assert rep.global_exact and all(rep.degreewise.values()) and rep.agree
    bogus = modules.ShortExactSeq(incl, modules.ModuleMorphism(
        P, kc.coker, {}))
    rep = modules.check_ses(bogus)
    assert not rep.global_exact and rep.agree


def test_decompose_string_is_itself(a2_win, field):
    w = strings.StringWord(a2_win.vname("1", 1), (("a@1", 1),))
    m = strings.string_module(a2_win, w, field)
    parts = modules.decompose(m)
    assert len(parts) == 1
    s, incl, proj = parts[0]
    assert modules.compose(proj, incl).rank() == s.total_dim()


def test_decompose_explicit_sum(a2_win, field):
    P = a2_win.projective("1", 0, field)
    s = simple(a2_win, field, "2", 2)
    total, _, _ = modules.direct_sum([P, s])
    parts = modules.decompose(total)
    assert sorted(p[0].total_dim() for p in parts) == [1, 3]
    # resolution of identity
    ident = None
    for summand, incl, proj in parts:
        assert modules.compose(proj, incl).rank() == summand.total_dim()
        term = modules.compose(incl, proj)
        ident = term if ident is None else ident + term
    assert (ident - modules.identity_morphism(total)).is_zero()


def test_decompose_without_a_candidate_summand_raises(a2_win, field):
    # Nothing is sampled: once no candidate splits off, the error comes at
    # once and carries the summands already peeled.
    P = a2_win.projective("1", 0, field)
    s = simple(a2_win, field, "2", 2)
    total, _, _ = modules.direct_sum([P, s])
    with pytest.raises(modules.DecomposeError) as info:
        modules.decompose(total, candidates=[s])
    assert [part.key() for part, _, _ in info.value.partial] == [s.key()]


TWOLOOP = ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
           "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n")


@pytest.mark.parametrize("fld", [QQ, PrimeField(2)], ids=repr)
def test_non_isomorphism_is_exact(fld):
    # Two string modules with equal dimension vectors and a one-dimensional
    # Hom space in each direction, none of it invertible.
    win = build_repetitive_window(parse_presentation(TWOLOOP), 0, 3)
    a, b = (strings.string_module(
        win, strings.StringWord("1@1", (("a@1", 1), ("m@1", sign))), fld)
        for sign in (-1, 1))
    assert a.dims == b.dims
    for x, y in ((a, b), (b, a)):
        assert modules.find_isomorphism(x, y) is None
        hom = modules.hom_basis(x, y)
        assert len(hom) == 1
        rad = modules.radical_hom(x, y)
        assert [modules.morphism_to_text(h) for h in rad] == \
            [modules.morphism_to_text(h) for h in hom]


def test_radical_hom_asks_for_the_hom_basis_once(ex4_win, field,
                                                 monkeypatch):
    m = strings.string_module(
        ex4_win, strings.StringWord("1@0", (("theta@0", -1),
                                            ("hat_alpha@0", 1))), field)
    expected = [modules.morphism_to_text(h)
                for h in modules.radical_hom(m, m)]
    calls = []
    hom_basis = modules.hom_basis
    monkeypatch.setattr(modules, "hom_basis",
                        lambda a, b: calls.append(1) or hom_basis(a, b))
    rad = modules.radical_hom(m, m)
    assert len(calls) == 1
    assert [modules.morphism_to_text(h) for h in rad] == expected


def _package_trees():
    """(file name, syntax tree) of every module of the package."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "repstable")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_module_imports_random():
    # Every decision is exact; a seeded search must not come back.  The
    # package stays stdlib-only: every absolute import names a module of
    # the standard library.
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            tops = [m.split(".")[0] for m in mods]
            assert "random" not in tops, name
            for top in tops:
                assert top in sys.stdlib_module_names, (name, top)


def test_only_fields_divide():
    # Rational scalars are ints where integral, and int / int is a float:
    # every division goes through field.div, so no other module has one.
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _package_trees() if name != "fields.py"
             for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    assert found == []


def test_commutation_exactness_of_all_morphisms(a2_win, field):
    # Every produced morphism satisfies all commutation constraints with a
    # zero residual; validate() is the exact check.
    P = a2_win.projective("1", 0, field)
    rad, incl = radical_of_projective(P)
    for h in modules.hom_basis(rad, P):
        h.validate()


def test_split_mono_implies_zero_kernel(a2_win, field):
    P = a2_win.projective("1", 0, field)
    s = simple(a2_win, field, "2", 2)
    total, incls, projs = modules.direct_sum([P, s])
    assert modules.is_split_mono(incls[0])
    assert modules.kernel_cokernel(incls[0]).ker.total_dim() == 0
    assert modules.is_split_epi(projs[1])
    assert modules.kernel_cokernel(projs[1]).coker.total_dim() == 0


def _module(win, fld, dims, acts):
    z = fld.zero()
    return modules.GradedModule(
        win, fld, dims,
        {an: [[fld.of_int(x) if x else z for x in row] for row in m]
         for an, m in acts.items()})


def test_validate_rejects_violated_monomial_relation(a3_win, field):
    # a@0*b@0 is a zero relation of A3.
    m = _module(a3_win, field, {"1@0": 1, "2@0": 1, "3@0": 1},
                {"a@0": [[1]], "b@0": [[1]]})
    with pytest.raises(modules.ModuleError, match="monomial relation a@0"):
        m.validate()
    _module(a3_win, field, {"1@0": 1, "2@0": 1, "3@0": 1},
            {"a@0": [[1]], "b@0": [[0]]}).validate()


def test_validate_rejects_violated_binomial_relation(a3_win, field):
    # hat_a@0*a@1 = b@0*hat_b@0 in the repetitive algebra of A3; every
    # zero relation through these vertices leaves the support.
    dims = {"2@0": 1, "1@1": 1, "3@0": 1, "2@1": 1}
    acts = {"hat_a@0": [[1]], "a@1": [[1]], "b@0": [[1]]}
    bad = _module(a3_win, field, dims, {**acts, "hat_b@0": [[2]]})
    with pytest.raises(modules.ModuleError, match="binomial relation"):
        bad.validate()
    _module(a3_win, field, dims, {**acts, "hat_b@0": [[1]]}).validate()


def test_validate_module_avoiding_every_relation_source(a3_win, field):
    # No relation of the window starts at 3@2, 2@3 or 3@3; the path
    # 3@2 -> 2@3 -> 3@3 lies inside b@2*hat_b@2*b@3, which starts at 2@2.
    sources = {r.path.source for r in a3_win.presentation.relations}
    dims = {"3@2": 1, "2@3": 1, "3@3": 1}
    assert not sources & set(dims)
    m = _module(a3_win, field, dims, {"hat_b@2": [[1]], "b@3": [[1]]})
    assert m.validate() is m


def test_morphism_validate_rejects_a_perturbed_block(a3_win, field):
    P = a3_win.projective("1", 0, field)
    ident = modules.identity_morphism(P)
    ident.validate()
    support_arrows = [a for a in a3_win.table.arrows
                      if P.dim(a.source) and P.dim(a.target)]
    assert support_arrows
    for a in support_arrows:
        for v in (a.source, a.target):
            blocks = {u: [list(row) for row in b]
                      for u, b in ident.blocks.items()}
            blocks[v][0][0] = blocks[v][0][0] + field.one()
            bad = modules.ModuleMorphism(P, P, blocks)
            with pytest.raises(modules.ModuleError, match="does not commute"):
                bad.validate()


def test_solve_morphisms_inconsistent_affine_row(a2_win, field):
    # L∘X = id_S with L zero has no solution: its constraint rows have no
    # variables but a nonzero right-hand side.
    s = simple(a2_win, field, "1", 1)
    P = a2_win.projective("1", 1, field)
    for n in (s, P):
        zero = modules.ModuleMorphism(n, s, {})
        assert modules.solve_morphisms(modules.identity_morphism(s),
                                       [("L", zero)]) is None
