"""What a window computes once and shares: projectives, enlargements,
string modules, decomposition candidates and injective hulls, kept as
payloads so that a window is freed by reference counting alone; plus the
empty-Hom shortcut, the hulls and stable solves of the axiom checks and the
names their failures give."""

import gc
import weakref
from collections import Counter

import pytest

from repstable import modules, stable, strings
from repstable.fields import PrimeField
from repstable.presentation import parse_presentation
from repstable.repetitive import build_repetitive_window, radical_of_projective
from repstable.strings import StringWord

TWOLOOP = ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
           "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n")


@pytest.fixture
def hull_builds(monkeypatch):
    """The keys of the modules whose hulls are built, not looked up."""
    built = []
    build = modules._build_injective_hull

    def counted(m):
        built.append(m.key())
        return build(m)

    monkeypatch.setattr(modules, "_build_injective_hull", counted)
    return built


@pytest.fixture
def string_builds(monkeypatch):
    """The (window, word, field) of every string module built, not looked
    up."""
    built = []
    build = strings._build_string_module

    def counted(win, w, fieldobj):
        built.append((id(win), w, repr(fieldobj)))
        return build(win, w, fieldobj)

    monkeypatch.setattr(strings, "_build_string_module", counted)
    return built


def test_window_is_freed_without_the_cycle_collector(a2, field, hull_builds):
    gc.disable()
    try:
        win = build_repetitive_window(a2, 0, 3)
        win.all_projectives(field)
        strings.string_module(win, StringWord("1@1", (("a@1", 1),)), field)
        strings.decomposition_candidates(win, field, 3)
        child = win.enlarged()
        seq, win2 = strings.ar_sequence(win, StringWord("1@1", ()), field)
        # The second check finds every hull in the window's cache.
        builds = []
        for _ in range(2):
            universe = strings.decomposition_candidates(win2, field, 3)
            report = stable.check_ar_axioms(seq, universe)
            assert report.ars1 and report.art3 and report.art3_star
            builds.append(len(hull_builds))
        assert builds[0] == builds[1] > 0
        refs = [weakref.ref(w) for w in (win, child, win2)]
        del win, child, win2, seq, universe, report
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_decomposition_candidates_are_fresh_modules_of_equal_data(
        a3_win, field):
    first = strings.decomposition_candidates(a3_win, field, 4)
    second = strings.decomposition_candidates(a3_win, field, 4)
    assert [m.key() for m in first] == [m.key() for m in second]
    assert not {id(m) for m in first} & {id(m) for m in second}
    assert all(m.win is a3_win for m in second)


def test_string_modules_are_fresh_modules_of_equal_data(a3, field,
                                                       string_builds):
    win = build_repetitive_window(a3, 0, 3)
    words = [StringWord("1@1", (("a@1", 1),)), StringWord("2@1", ()),
             StringWord("1@1", (("a@1", 1),))]
    mods = [strings.string_module(win, w, fld)
            for fld in (field, PrimeField(101)) for w in words]
    assert len({id(m) for m in mods}) == len(mods)
    assert mods[0].key() == mods[2].key() and mods[0].meta == mods[2].meta
    assert mods[0].key() != mods[1].key()
    assert mods[0].meta["word"] == words[0]
    assert all(m.win is win for m in mods)
    assert [repr(m.field) for m in mods[3:]] == ["GF(101)"] * 3
    # One build per window, word and field: the repeated word is looked up.
    assert len(string_builds) == len(set(string_builds)) == 4
    strings.string_module(win.enlarged(), words[1], field)
    assert len(string_builds) == 5


def test_projectives_are_fresh_modules_of_equal_data(a3_win, field):
    p, q = (a3_win.projective("2", 1, field) for _ in range(2))
    assert p is not q
    assert p.key() == q.key() and p.meta == q.meta


def test_candidates_depend_on_field_and_bound(a2_win, field):
    small = strings.decomposition_candidates(a2_win, field, 2)
    large = strings.decomposition_candidates(a2_win, field, 3)
    gf = strings.decomposition_candidates(a2_win, PrimeField(101), 3)
    assert len(small) < len(large) == len(gf)
    assert {repr(m.field) for m in gf} == {"GF(101)"}


def test_enlarged_window_is_shared(a2):
    win = build_repetitive_window(a2, 0, 3)
    assert win.enlarged() is win.enlarged()
    assert win.enlarged().enlarged() is win.enlarged().enlarged()
    assert (win.enlarged().lo, win.enlarged().hi) == (-2, 5)


def test_hom_basis_on_disjoint_supports_is_empty(a2_win, field):
    s = modules.simple_module(a2_win, field, "1@1")
    t = modules.simple_module(a2_win, field, "2@1")
    assert modules.hom_basis(s, t) == []
    assert len(modules.hom_basis(s, s)) == 1


def test_hom_basis_checks_the_quiver_before_the_supports(a2_win, field):
    m = a2_win.projective("1", 1, field)
    other = m.slice_view(1)
    assert not set(m.dims) & set(other.dims)
    with pytest.raises(modules.ModuleError):
        modules.hom_basis(m, other)


def test_axiom_checks_take_one_hull_per_module(a3, field, monkeypatch):
    win = build_repetitive_window(a3, 0, 3)
    seq, win2 = strings.ar_sequence(win, StringWord("2@1", ()), field)
    universe = strings.decomposition_candidates(win2, field, 4)
    hulled = []
    hull = modules.injective_hull

    def counted(m):
        hulled.append(m.key())
        return hull(m)

    monkeypatch.setattr(modules, "injective_hull", counted)
    report = stable.check_ar_axioms(seq, universe)
    assert report.art3 and report.art3_star
    # An almost split sequence leaves no test module an open map, so only
    # the start (the triangle) and the end (art2, the source of the
    # connecting map) are hulled, each once.
    assert max(Counter(hulled).values()) == 1
    assert set(hulled) == {seq.f.source.key(), seq.g.target.key()}


def test_triangle_axioms_solve_only_the_open_maps(a2, a3, field,
                                                  monkeypatch):
    solved = []
    stably_solvable = stable._stably_solvable

    def counted(rhs, side, known, iota):
        solved.append(side)
        return stably_solvable(rhs, side, known, iota)

    monkeypatch.setattr(stable, "_stably_solvable", counted)
    win = build_repetitive_window(a3, 0, 3)
    seq, win2 = strings.ar_sequence(win, StringWord("2@1", ()), field)
    report = stable.check_ar_axioms(
        seq, strings.decomposition_candidates(win2, field, 4))
    assert report.art3 and report.art3_star
    assert solved == []
    # rad P -> P -> top P leaves one open map from the start (to 1_(2@1))
    # and one to the end (from a@1).
    win = build_repetitive_window(a2, -2, 5)
    radm, incl = radical_of_projective(win.projective("1", 1, field))
    kc = modules.kernel_cokernel(incl)
    seq = modules.ShortExactSeq(incl, kc.coker_proj)
    stable.check_ar_axioms(seq, strings.decomposition_candidates(win, field, 3))
    assert sorted(solved) == ["L", "R"]


def test_axiom_checks_build_each_hull_once_per_window(a3, field,
                                                     hull_builds):
    win = build_repetitive_window(a3, 0, 3)
    seq, win2 = strings.ar_sequence(win, StringWord("2@1", ()), field)
    builds = []
    for _ in range(2):
        universe = strings.decomposition_candidates(win2, field, 4)
        report = stable.check_ar_axioms(seq, universe)
        assert report.art3 and report.art3_star
        builds.append(len(hull_builds))
    assert builds[0] == builds[1] > 0
    assert max(Counter(hull_builds).values()) == 1


def test_hull_calls_return_fresh_modules_of_equal_data(a3_win, field,
                                                      hull_builds):
    m = strings.string_module(a3_win, StringWord("1@1", (("a@1", 1),)), field)
    (h1, e1), (h2, e2) = (modules.injective_hull(m) for _ in range(2))
    assert len(hull_builds) == 1
    assert h1 is not h2 and h1.key() == h2.key()
    assert e1 is not e2 and e1.blocks == e2.blocks
    for h, e in ((h1, e1), (h2, e2)):
        assert e.source is m and e.target is h and h.win is a3_win
        e.validate()
        assert e.rank() == m.total_dim()


def test_hulls_in_two_fields_are_separate_entries(a3_win, field,
                                                  hull_builds):
    gf = PrimeField(101)
    for fld in (field, gf, field, gf):
        m = strings.string_module(a3_win, StringWord("2@1", ()), fld)
        hull, emb = modules.injective_hull(m)
        assert hull.field is fld and emb.source.field is fld
        emb.validate()
    assert len(hull_builds) == 2


def test_hull_cache_is_keyed_by_module_data(field):
    # M(a.m^-1) and M(a.m) have equal dimension vectors and are not
    # isomorphic; the third module has the data of M(a.m) and the meta of
    # M(a.m^-1).  Each hull must be the one an uncached build gives.
    win = build_repetitive_window(parse_presentation(TWOLOOP), 0, 3)
    a, b = (strings.string_module(
        win, StringWord("1@1", (("a@1", 1), ("m@1", sign))), field)
        for sign in (-1, 1))
    assert a.dims == b.dims and a.key() != b.key()
    b_named_a = modules.GradedModule(win, field, b.dims, b.acts, meta=a.meta)
    embeddings = []
    for m in (a, b, b_named_a):
        hull, emb = modules.injective_hull(m)
        fresh = modules._build_injective_hull(m)
        assert modules.module_to_text(hull) == modules.module_to_text(fresh)
        assert emb.blocks == fresh.meta["embedding"]
        emb.validate()
        embeddings.append(modules.morphism_to_text(emb))
    assert embeddings[0] != embeddings[1] == embeddings[2]


def test_axiom_failures_name_the_test_module(field, a2):
    # 0 -> rad P -> P -> top P -> 0 for the uniserial projective P at 1@1
    # is exact and not split, but not almost split.
    win = build_repetitive_window(a2, -2, 5)
    radm, incl = radical_of_projective(win.projective("1", 1, field))
    kc = modules.kernel_cokernel(incl)
    seq = modules.ShortExactSeq(incl, kc.coker_proj)
    report = stable.check_ar_axioms(
        seq, strings.decomposition_candidates(win, field, 3))
    assert (report.ars1, report.ars2, report.art3, report.art3_star) == \
        (False, False, False, False)
    assert report.details == [
        "map to string 1_(2@1) does not factor through the middle",
        "map from string a@1 does not lift through the middle",
        "map to string 1_(2@1) does not factor stably through the middle",
        "map from string a@1 does not lift stably through the middle",
    ]


def test_module_names(a2_win, field):
    assert stable._module_name(a2_win.projective("1", 1, field)) == \
        "projective at 1@1"
    assert stable._module_name(
        modules.simple_module(a2_win, field, "2@1")) == "module [('2@1', 1)]"
