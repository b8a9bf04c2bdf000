"""End-to-end checks on the bundled example algebra: the four canonical
triangle shapes and the component geometry around its simple modules."""

from repstable.presentation import validate_gentle
from repstable import modules, stable, strings
from repstable.strings import StringWord


def test_bundled_presentation_is_gentle(ex4):
    assert validate_gentle(ex4).is_gentle
    assert len(ex4.path_basis()) == 11


def ar_and_shape(win, word, field):
    seq, win2 = strings.ar_sequence(win, word, field)
    assert modules.check_ses(seq).global_exact
    tri, phat = stable.ar_triangle_from_sequence(seq)
    finding = stable.verify_shape_table(tri, phat)
    return seq, finding


def test_triangle_smonic_sepic(ex4_win, field):
    w = StringWord("1@0", (("theta@0", -1), ("hat_alpha@0", 1)))
    seq, finding = ar_and_shape(ex4_win, w, field)
    assert finding.clause == "i" and finding.passed
    assert finding.class_h.kind == "smonic"
    assert finding.class_hp.kind == "sepic"
    assert seq.meta["projective"] is None
    mids = sorted(str(x) for x in seq.meta["middle_words"])
    assert mids == ["hat_alpha@0", "theta@0^-1"]
    assert str(seq.meta["end_word"]) == "1_(2@0)"


def test_triangle_sepic_sirr(ex4_win, field):
    w = StringWord("2@0", (("hat_alpha@0", 1),))
    seq, finding = ar_and_shape(ex4_win, w, field)
    assert finding.clause == "ii" and finding.passed
    assert finding.class_h.kind == "sepic"
    assert finding.class_hp.kind == "sirreducible"
    assert seq.meta["projective"] == ("3", 0)
    assert finding.upper_simple  # the injective part is simple


def test_triangle_sirr_smonic(ex4_win, field):
    w = StringWord("4@1", (("lam@1", 1), ("beta@1", 1), ("theta@1", 1)))
    seq, finding = ar_and_shape(ex4_win, w, field)
    assert finding.clause == "iii-a" and finding.passed
    assert finding.class_h.kind == "sirreducible"
    assert finding.class_hp.kind == "smonic"
    assert seq.meta["projective"] == ("1", 0)
    assert finding.lower_simple  # simple projective lower part


def test_triangle_sirr_sirr(ex4_win, field):
    w = StringWord("1@0", ())
    seq, finding = ar_and_shape(ex4_win, w, field)
    assert finding.clause == "iii-b" and finding.passed
    assert finding.class_h.kind == "sirreducible"
    assert finding.class_hp.kind == "sirreducible"
    assert seq.meta["projective"] is None
    assert [str(x) for x in seq.meta["middle_words"]] == \
        ["theta@0^-1.hat_alpha@0"]
    assert str(seq.meta["end_word"]) == "hat_alpha@0"


def test_component_contains_simples_and_za_infinity(ex4_win, field):
    comp = strings.knit_component(ex4_win, StringWord("1@0", ()), 18, field)
    node_words = {str(strings.StringWord(e[0], tuple(e[1:])))
                  for e in comp.nodes}
    assert "1_(1@0)" in node_words
    assert "1_(2@0)" in node_words
    assert any(w.startswith("1_(3@") for w in node_words)
    # mesh pattern: every mesh has one or two stable middle terms, both
    # kinds occur, and none has more
    sizes = sorted(len(m.middles) for m in comp.meshes)
    assert set(sizes) == {1, 2}
    # tau symmetry: within the fully meshed region the end of each mesh
    # has as many incoming edges as its start has outgoing ones
    meshed = {m.start: m for m in comp.meshes}
    indeg = {}
    for src, dst, _ in comp.edges:
        indeg[dst] = indeg.get(dst, 0) + 1
    for m in comp.meshes:
        if m.end in meshed and m.start in indeg:
            assert indeg[m.end] == len(meshed[m.end].middles) or \
                indeg[m.end] <= len(m.middles)


def test_boundary_orbit(ex4_win, field):
    # the simple over vertex 1 is a boundary node: its mesh has a single
    # stable middle term, and the same holds along its tau orbit
    comp = strings.knit_component(ex4_win, StringWord("1@0", ()), 8, field)
    meshed = {m.start: m for m in comp.meshes}
    start = strings.canonical(StringWord("1@0", ()),
                              comp.win.presentation.quiver)
    orbit = [start]
    while orbit[-1] in meshed and len(orbit) < 4:
        orbit.append(meshed[orbit[-1]].end)
    lens = [len(meshed[o].middles) for o in orbit if o in meshed]
    assert lens and all(k == 1 for k in lens)
