import pytest

from repstable.fields import PrimeField, QQ
from repstable.presentation import parse_presentation
from repstable.repetitive import (
    build_repetitive_window,
    radical_of_projective,
)
from repstable import modules, stable, strings
from repstable.strings import StringWord
from test_projectives import CASES, _presentation

KRONECKER = "vertices 1 2\narrow a : 1 -> 2\narrow b : 1 -> 2\n"


def test_trivial_words_per_interior_vertex(a2_win):
    words = strings.enumerate_strings(a2_win, 0)
    assert all(len(w) == 0 for w in words)
    interior = [v for v in a2_win.sorted_vertices() if a2_win.is_interior(v)]
    assert sorted(w.source for w in words) == sorted(interior)


def interval_module_count(win, field, max_dim):
    """Brute-force oracle for the line-quiver window: every interval of
    interior vertices supports exactly one indecomposable (checked via a
    one-dimensional endomorphism space), and these are all of them."""
    order = [v for v in win.sorted_vertices() if win.is_interior(v)]
    count = 0
    for i in range(len(order)):
        for j in range(i, min(i + max_dim, len(order))):
            verts = order[i:j + 1]
            dims = {v: 1 for v in verts}
            acts = {}
            ok = True
            q = win.presentation.quiver
            for a in q.sorted_arrows():
                if a.source in dims and a.target in dims:
                    acts[a.name] = [[field.one()]]
            m = modules.GradedModule(win, field, dims, acts)
            try:
                m.validate()
            except modules.ModuleError:
                continue
            if len(modules.hom_basis(m, m)) == 1:
                count += 1
    return count


def test_a2_word_count_matches_indecomposable_count(a2_win, field):
    words = strings.enumerate_strings(a2_win, 2)
    assert len(words) == 9
    assert interval_module_count(a2_win, field, 3) == 9


def test_ex4_words_present(ex4_win):
    ctx = strings.window_context(ex4_win)
    want = [
        StringWord("1@0", (("theta@0", -1), ("hat_alpha@0", 1))),
        StringWord("4@1", (("lam@1", 1), ("beta@1", 1), ("theta@1", 1))),
        StringWord("4@1", (("lam@1", 1), ("beta@1", 1))),
        StringWord("2@0", (("hat_alpha@0", 1),)),
    ]
    got = {strings.canonical(w, ctx.quiver)
           for w in strings.enumerate_strings(ex4_win, 3)}
    for w in want:
        assert strings.canonical(w, ctx.quiver) in got


def test_string_module_trivial_is_simple(a2_win, field):
    w = StringWord("1@1", ())
    m = strings.string_module(a2_win, w, field)
    assert m.total_dim() == 1 and m.dim("1@1") == 1


def test_word_and_inverse_isomorphic(ex4_win, field):
    w = StringWord("1@0", (("theta@0", -1), ("hat_alpha@0", 1)))
    wi = w.inverse(ex4_win.presentation.quiver)
    a = strings.string_module(ex4_win, w, field)
    b = strings.string_module(ex4_win, wi, field)
    assert modules.find_isomorphism(a, b) is not None


def test_string_module_matches_radical(a2_win, field):
    P = a2_win.projective("1", 0, field)
    rad, _ = radical_of_projective(P)
    w = StringWord("2@0", (("hat_a@0", 1),))
    m = strings.string_module(a2_win, w, field)
    assert modules.find_isomorphism(m, rad) is not None


def test_string_modules_indecomposable(ex4_win, field):
    for w in strings.enumerate_strings(ex4_win, 3)[:12]:
        m = strings.string_module(ex4_win, w, field)
        endos = modules.hom_basis(m, m)
        rad = modules.radical_hom(m, m)
        # local endomorphism algebra with scalar residue field
        span = [h for h in rad]
        assert len(endos) - _span_rank(m, span) == 1


def _span_rank(m, morphisms):
    if not morphisms:
        return 0
    fld = m.field
    rows = []
    for h in morphisms:
        vec = []
        for v in sorted(m.dims):
            for row in h.block(v):
                vec.extend(row)
        rows.append(vec)
    from repstable import linalg
    return linalg.rank(fld, rows)


def test_band_words_skipped():
    kron = parse_presentation(KRONECKER)
    win = build_repetitive_window(kron, 0, 3)
    words, bands = strings.enumerate_strings(win, 2, with_bands=True)
    assert bands, "expected a cyclic word in the doubled-arrow window"
    ctx = strings.window_context(win)
    enc = {strings.canonical(w, ctx.quiver) for w in words}
    for b in bands:
        assert strings.canonical(b, ctx.quiver) not in enc


def _whole_word_valid(ctx, w):
    """The whole-word validity rule that one-letter extension replaced:
    continuity, then every adjacent pair, then every maximal run."""
    quiver, pres = ctx.quiver, ctx.pres
    maxforb = max(map(len, pres.forbidden_subwords), default=0)

    def run_ok(names):
        if len(names) >= pres.nilpotency:
            return False
        for k in range(2, min(len(names), maxforb) + 1):
            for i in range(len(names) - k + 1):
                if names[i:i + k] in pres.forbidden_subwords:
                    return False
        return True

    def pair_ok(l1, l2):
        (a, sa), (b, sb) = l1, l2
        arra, arrb = quiver.arrows[a], quiver.arrows[b]
        enda = arra.target if sa > 0 else arra.source
        startb = arrb.source if sb > 0 else arrb.target
        if enda != startb:
            return False
        if sa != sb:
            return a != b
        return True

    if w.source not in quiver.vertices:
        return False
    at = w.source
    for name, sign in w.letters:
        if name not in quiver.arrows:
            return False
        arr = quiver.arrows[name]
        if (arr.source if sign > 0 else arr.target) != at:
            return False
        at = arr.target if sign > 0 else arr.source
    for l1, l2 in zip(w.letters, w.letters[1:]):
        if not pair_ok(l1, l2):
            return False
    i = 0
    n = len(w.letters)
    while i < n:
        j = i
        while j < n and w.letters[j][1] == w.letters[i][1]:
            j += 1
        names = tuple(x[0] for x in w.letters[i:j])
        if w.letters[i][1] < 0:
            names = tuple(reversed(names))
        if not run_ok(names):
            return False
        i = j
    return True


def _test_windows():
    texts = [_presentation(c) for c in CASES]
    texts.append(parse_presentation(KRONECKER))
    return [build_repetitive_window(p, 0, 3) for p in texts]


def test_one_letter_rule_equals_the_whole_word_rule():
    # Every one-letter extension (any arrow, either sign) of every valid
    # word, up to five letters.
    checked = 0
    for win in _test_windows():
        ctx = strings.window_context(win)
        letters = [(a, s) for a in sorted(ctx.quiver.arrows) for s in (1, -1)]
        current = [StringWord(v, ()) for v in sorted(ctx.quiver.vertices)]
        for _ in range(5):
            nxt = []
            for w in current:
                for letter in letters:
                    w2 = StringWord(w.source, w.letters + (letter,))
                    valid = _whole_word_valid(ctx, w2)
                    assert ctx.is_valid(w2) == valid, str(w2)
                    checked += 1
                    if valid:
                        nxt.append(w2)
            current = nxt
    assert checked == 37180


def test_is_valid_rejects_unknown_vertices_and_arrows(a2_win):
    ctx = strings.window_context(a2_win)
    assert ctx.is_valid(StringWord("1@1", (("a@1", 1),)))
    assert not ctx.is_valid(StringWord("9@1", ()))
    assert not ctx.is_valid(StringWord("1@1", (("z@1", 1),)))
    assert not ctx.is_valid(StringWord("1@1", (("a@1", 1), ("z@1", 1))))


def test_words_stay_valid_on_the_enlarged_window():
    for win in _test_windows():
        ctx = strings.window_context(win.enlarged())
        for w in strings.enumerate_strings(win, 4, interior_only=False):
            assert ctx.is_valid(w), str(w)


def test_ar_sequence_rejects_projectives(a2_win, field):
    w = StringWord("1@1", (("a@1", 1), ("hat_a@1", 1)))
    with pytest.raises(strings.ArInjectiveError):
        strings.ar_sequence(a2_win, w, field)


def test_ar_sequence_rejects_an_unpredicted_cokernel(a3, field,
                                                    monkeypatch):
    # With the start word as the only prediction, no predicted end word is
    # isomorphic to the cokernel, and nothing else is searched.
    monkeypatch.setattr(strings, "_predict_end", lambda ctx, w: [w])
    win = build_repetitive_window(a3, 0, 3)
    with pytest.raises(strings.StringError, match="2@1"):
        strings.ar_sequence(win, StringWord("2@1", ()), field)


def test_ar_sequence_projective_middle_shape(a2_win, field):
    # The sequence starting at the radical of a projective keeps that
    # projective as a middle summand and ends at its socle quotient.
    w = StringWord("2@1", (("hat_a@1", 1),))
    seq, win = strings.ar_sequence(a2_win, w, field)
    assert seq.meta["projective"] is not None
    assert modules.check_ses(seq).global_exact
    assert not modules.is_split_mono(seq.f)


def test_ar_sequence_never_splits(ex4_win, field):
    done = 0
    for w in strings.enumerate_strings(ex4_win, 2):
        try:
            seq, _ = strings.ar_sequence(ex4_win, w, field)
        except strings.ArInjectiveError:
            continue
        assert not modules.is_split_mono(seq.f)
        assert not modules.is_split_epi(seq.g)
        done += 1
        if done >= 6:
            break
    assert done >= 6


def test_ar_sequence_42_middle(ex4_win, field):
    seq, _ = strings.ar_sequence(
        ex4_win, StringWord("2@0", (("hat_alpha@0", 1),)), field)
    mids = [str(x) for x in seq.meta["middle_words"]]
    assert "1_(2@0)" in mids
    assert seq.meta["projective"] == ("3", 0)


def test_end_term_matches_cokernel(ex4_win, field):
    # The surgery-predicted end word is certified against the exact
    # cokernel inside ar_sequence; assert the certificate explicitly.
    for w in [StringWord("1@0", ()),
              StringWord("2@0", (("hat_alpha@0", 1),)),
              StringWord("3@0", ())]:
        seq, win = strings.ar_sequence(ex4_win, w, field)
        end = strings.string_module(win, seq.meta["end_word"], field)
        assert modules.find_isomorphism(end, seq.g.target) is not None


def test_knit_zero_steps(ex4_win, field):
    comp = strings.knit_component(ex4_win, StringWord("2@0", ()), 0, field)
    assert len(comp.nodes) == 1 and not comp.meshes


def test_knit_shift_equivariance(a2, field):
    win = build_repetitive_window(a2, -4, 8)
    c0 = strings.knit_component(win, StringWord("1@1", ()), 6, field)
    c1 = strings.knit_component(win, StringWord("1@2", ()), 6, field)

    def shift_enc(enc, dz):
        def sh(tok):
            name, z = tok.rsplit("@", 1)
            return "%s@%d" % (name, int(z) + dz)
        head = sh(enc[0])
        rest = tuple((sh(n), s) for n, s in enc[1:])
        return (head,) + rest

    shifted = sorted(shift_enc(e, 1) for e in c0.nodes)
    assert shifted == sorted(c1.nodes)


def test_mesh_edges_are_irreducible(ex4_win, field):
    # Each component map of a mesh into the decomposed middle is itself
    # irreducible: certified exactly from the almost split sequence that
    # starts at its source.
    comp = strings.knit_component(ex4_win, StringWord("2@0", ()), 3, field)
    checked = 0
    for mesh in comp.meshes:
        for emap in mesh.edge_maps:
            verdict = stable.classify_irreducible(emap, certify=True,
                                                  universe_dim=8)
            assert verdict.kind != "not_irreducible"
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("p", [2, 3])
def test_mesh_edges_certified_in_small_characteristic(ex4, p):
    # The radical of an endomorphism ring is found through eigenvalues at
    # one vertex, not the total trace over the total dimension, which
    # cannot be divided when p divides that dimension.
    win = build_repetitive_window(ex4, -1, 2)
    comp = strings.knit_component(win, StringWord("2@0", ()), 3,
                                  PrimeField(p))
    verdicts = [str(stable.classify_irreducible(emap, certify=True,
                                                universe_dim=6))
                for mesh in comp.meshes for emap in mesh.edge_maps]
    assert verdicts == ["sirr(0)"] * 5


def test_component_exports_deterministic(ex4_win, field):
    comp1 = strings.knit_component(ex4_win, StringWord("2@0", ()), 4, field)
    comp2 = strings.knit_component(ex4_win, StringWord("2@0", ()), 4, field)
    assert strings.component_dot(comp1) == strings.component_dot(comp2)
    assert strings.component_table(comp1) == strings.component_table(comp2)
