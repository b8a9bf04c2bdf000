import pytest

from repstable.presentation import (
    ParseError,
    PathWord,
    PresentationError,
    parse_presentation,
    validate_gentle,
)

A2 = "vertices 1 2\narrow a : 1 -> 2\n"
A3 = "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero a b\n"
LOOP = "vertices 1\narrow l : 1 -> 1\nzero l l\nnilpotent 10\n"


def test_parse_a2():
    pres = parse_presentation(A2)
    assert set(pres.quiver.vertices) == {"1", "2"}
    assert len(pres.quiver.arrows) == 1
    assert pres.relations == ()


def test_parse_loop_truncation():
    pres = parse_presentation(LOOP)
    assert pres.quiver.arrows["l"].source == pres.quiver.arrows["l"].target == "1"
    assert len(pres.relations) == 1
    assert pres.relations[0].kind == "monomial"


def test_parse_binomial_and_monomial_mix():
    text = (
        "vertices 1 2\n"
        "arrow a : 1 -> 2\n"
        "arrow b : 1 -> 2\n"
        "arrow l : 1 -> 1\n"
        "zero l l\n"
        "equal l a , b\n"
        "nilpotent 8\n"
    )
    pres = parse_presentation(text)
    kinds = sorted(r.kind for r in pres.relations)
    assert kinds == ["binomial", "monomial"]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_presentation("vertices 1\narrow a : 1 -> 2\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_presentation("vertices 1 2\narrow a : 1 -> 2\nzero a a\n")
    with pytest.raises(ParseError):
        parse_presentation("frobnicate 1\n")


def test_missing_nilpotency_on_cycle():
    with pytest.raises(ParseError) as exc:
        parse_presentation("vertices 1\narrow l : 1 -> 1\nzero l l\n")
    assert "nilpotency" in str(exc.value)


def test_gentle_a2_and_a3():
    assert validate_gentle(parse_presentation(A2)).is_gentle
    # A3 with the composite vanishing: checked by hand against every clause.
    assert validate_gentle(parse_presentation(A3)).is_gentle


def test_not_gentle_three_arrows_out():
    text = (
        "vertices 0 1 2 3\n"
        "arrow a : 0 -> 1\narrow b : 0 -> 2\narrow c : 0 -> 3\n"
    )
    report = validate_gentle(parse_presentation(text))
    assert not report.is_gentle
    assert any("at most two arrows out" == clause for clause, _ in report.violations)


def test_gentle_flags_long_relation():
    text = (
        "vertices 1 2 3 4\n"
        "arrow a : 1 -> 2\narrow b : 2 -> 3\narrow c : 3 -> 4\n"
        "zero a b c\n"
    )
    report = validate_gentle(parse_presentation(text))
    assert not report.is_gentle
    assert any("length 2" in clause for clause, _ in report.violations)


def test_normal_form_identity_and_relation_hit():
    pres = parse_presentation(LOOP)
    e = PathWord("1", ())
    nf = pres.path_normal_form(e)
    assert not nf.is_zero and nf.path.arrows == ()
    ll = PathWord("1", ("l", "l"))
    assert pres.path_normal_form(ll).is_zero


def test_normal_form_idempotent():
    pres = parse_presentation(A3)
    for p in pres.path_basis():
        nf = pres.path_normal_form(p)
        assert not nf.is_zero
        again = pres.path_normal_form(nf.path)
        assert again.path == nf.path
    with pytest.raises(PresentationError):
        pres.path_normal_form(PathWord("2", ("b", "a")))


def brute_force_nonzero_paths(pres):
    """Independent enumeration: all composable words below the nilpotency
    bound avoiding every monomial relation as a contiguous factor and
    reduced for binomials; counts normal forms only."""
    quiver = pres.quiver
    monos = [r.path.arrows for r in pres.relations if r.kind == "monomial"]
    rewrites = {}
    for r in pres.relations:
        if r.kind == "binomial":
            a, b = r.path.arrows, r.other.arrows
            big = a if (len(a), a) > (len(b), b) else b
            rewrites[big] = True

    def contains(word, sub):
        k = len(sub)
        return any(word[i:i + k] == sub for i in range(len(word) - k + 1))

    count = 0
    stack = [(v, ()) for v in quiver.vertices]
    while stack:
        at_source, word = stack.pop()
        if any(contains(word, m) for m in monos):
            continue
        if any(contains(word, big) for big in rewrites):
            continue
        if len(word) >= pres.nilpotency:
            continue
        count += 1
        end = quiver.arrows[word[-1]].target if word else at_source
        for a in quiver.arrows_out(end):
            stack.append((at_source, word + (a.name,)))
    return count


@pytest.mark.parametrize("text,expected_dim", [
    (A2, 3),       # e1, e2, a
    (A3, 5),       # three idempotents, a, b (ab = 0)
    (LOOP, 2),     # e, l
])
def test_dimension_matches_brute_force(text, expected_dim):
    pres = parse_presentation(text)
    assert len(pres.path_basis()) == expected_dim
    assert brute_force_nonzero_paths(pres) == expected_dim


def test_roundtrip_pretty_parse():
    for text in (A2, A3, LOOP):
        pres = parse_presentation(text)
        printed = pres.pretty()
        again = parse_presentation(printed)
        assert again.pretty() == printed


def test_suffix_prefix_helpers():
    pres = parse_presentation(A3)
    ab = PathWord("1", ("a", "b"))
    assert ab.prefix(1).arrows == ("a",)
    assert ab.suffix(1, pres.quiver).arrows == ("b",)
    assert ab.suffix(0, pres.quiver).source == "3"
