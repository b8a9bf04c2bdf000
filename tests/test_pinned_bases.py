"""Exact matrices pinned byte for byte.

The goldens of ``example4 --check`` pin verdicts; this file pins the
matrices behind them: bases of radicals, socle quotients, socles, kernels
and cokernels, projective covers and syzygies, Hom bases, a decomposition
and a connecting morphism.  The Gauss-Jordan column order fixes every one
of them, so a change to how a system or a basis is laid out shows here
first.

Regenerate the fixture (only when a change of basis is intended) with

    PYTHONPATH=src python tests/test_pinned_bases.py
"""

import os

import pytest

from repstable import modules, stable, strings
from repstable.fields import PrimeField, QQ
from repstable.presentation import parse_presentation
from repstable.repetitive import (
    build_repetitive_window,
    quotient_by_socle,
    radical_of_projective,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "data", "pinned_bases.txt")
EXAMPLE4 = os.path.join(HERE, "..", "src", "repstable", "data",
                        "example4.quiver")
A3_TEXT = "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero a b\n"

CASES = {
    "ex4": (-1, 2),
    "a3": (0, 3),
}
FIELDS = {"qq": QQ, "gf101": PrimeField(101)}


def _presentation(name):
    if name == "ex4":
        with open(EXAMPLE4) as fh:
            return parse_presentation(fh.read())
    return parse_presentation(A3_TEXT)


def render(case, fld):
    """Ordered (label, text) pairs for one algebra, window and field."""
    lo, hi = CASES[case]
    win = build_repetitive_window(_presentation(case), lo, hi)
    out = []

    def mod(label, m):
        out.append((label, modules.module_to_text(m)))

    def mor(label, h):
        out.append((label, modules.morphism_to_text(h)))

    for phat in win.all_projectives(fld):
        tag = "P(%s@%d)" % phat.meta["projective"]
        rad, incl = radical_of_projective(phat)
        mod(tag + " radical", rad)
        mor(tag + " radical incl", incl)
        quot, proj = quotient_by_socle(phat)
        mod(tag + " socle quotient", quot)
        mor(tag + " socle quotient proj", proj)
        sr = modules.socle_radical(phat)
        mor(tag + " soc incl", sr.soc_incl)
        mor(tag + " rad incl", sr.rad_incl)
        mod(tag + " top", sr.top)
        mor(tag + " top proj", sr.top_proj)

    words = strings.enumerate_strings(win, 2)
    chosen = words[:8] + words[-4:]
    sms = [strings.string_module(win, w, fld) for w in chosen]
    for w, m in zip(chosen, sms):
        sr = modules.socle_radical(m)
        mor("%s soc incl" % w, sr.soc_incl)
        mor("%s rad incl" % w, sr.rad_incl)
        mor("%s top proj" % w, sr.top_proj)
        cover, cover_map = stable.projective_cover(m)
        mod("%s cover" % w, cover)
        mor("%s cover map" % w, cover_map)
        mor("%s syzygy incl" % w, stable.syzygy(m)[1])
        if min(win.degree(v) for v in sr.soc.dims) - 1 < win.lo:
            continue
        hull, emb = modules.injective_hull(m)
        mor("%s hull emb" % w, emb)
        kc = modules.kernel_cokernel(emb)
        mod("%s hull coker" % w, kc.coker)
        mor("%s hull coker proj" % w, kc.coker_proj)
        mor("%s hull ker incl" % w, kc.ker_incl)

    picks = list(zip(chosen, sms))[::2]
    for wa, a in picks:
        for wb, b in picks:
            for i, h in enumerate(modules.hom_basis(a, b)):
                mor("hom(%s, %s)[%d]" % (wa, wb, i), h)

    parts = [sms[0], sms[-1], sms[len(sms) // 2]]
    total, _, _ = modules.direct_sum(parts)
    for i, (s, incl, proj) in enumerate(modules.decompose(total, parts)):
        mod("decompose[%d]" % i, s)
        mor("decompose[%d] incl" % i, incl)
        mor("decompose[%d] proj" % i, proj)

    for ordered in (words, words[::-1]):
        for w in ordered:
            try:
                seq, _ = strings.ar_sequence(win, w, fld)
            except strings.ArInjectiveError:
                continue
            tri = stable.triangle_from_ses(seq)
            mod("triangle(%s) omega" % w, tri.omega)
            mor("triangle(%s) hpp" % w, tri.hpp)
            break
    return out


def render_all():
    sections = []
    for case in CASES:
        for fname, fld in FIELDS.items():
            for label, text in render(case, fld):
                sections.append("== %s %s %s\n%s" % (case, fname, label, text))
    return "".join(sections)


def _parse(text):
    out = {}
    for chunk in text.split("== ")[1:]:
        label, body = chunk.split("\n", 1)
        out[label] = body
    return out


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("fname", list(FIELDS))
def test_pinned_bases(case, fname):
    with open(FIXTURE) as fh:
        pinned = _parse(fh.read())
    prefix = "%s %s " % (case, fname)
    want = {k: v for k, v in pinned.items() if k.startswith(prefix)}
    got = {prefix + label: text
           for label, text in render(case, FIELDS[fname])}
    assert list(got) == list(want)
    for label in want:
        assert got[label] == want[label], label


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write(render_all())
