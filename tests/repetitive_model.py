"""The repetitive algebra as the definitional model Λ ⋉ DΛ, element by
element: an oracle for the path algebra of a repetitive window.

An element is a finitely supported family of algebra parts (degree ``z``,
a combination of basis paths of Λ) and dual parts (pairing degree ``z``
with ``z + 1``, a combination of dual-basis functionals of Λ).
"""

from dataclasses import dataclass

from repstable.presentation import (
    AlgebraPresentation,
    PathWord,
    PresentationError,
)


@dataclass(frozen=True)
class RepetitiveElement:
    """Finitely supported family of (algebra part, dual part) pairs.  The
    algebra part of degree ``z`` is a combination of basis paths; the dual
    part pairs degree ``z`` with degree ``z + 1`` and is a combination of
    dual-basis functionals, keyed by the basis path they dualize."""

    base: AlgebraPresentation
    parts: tuple  # tuple of (z, ("alg"|"dual"), path key, coefficient)

    @staticmethod
    def make(base, entries):
        """entries: iterable of (z, kind, PathWord, coeff)."""
        acc = {}
        for z, kind, p, c in entries:
            key = (z, kind, (p.source, p.arrows))
            acc[key] = acc.get(key, 0) + c
        parts = tuple(sorted((z, kind, pk, c) for (z, kind, pk), c in acc.items()
                             if c != 0))
        return RepetitiveElement(base, parts)

    def __add__(self, other):
        return RepetitiveElement.make(
            self.base,
            [(z, k, PathWord(pk[0], pk[1]), c) for z, k, pk, c in self.parts]
            + [(z, k, PathWord(pk[0], pk[1]), c) for z, k, pk, c in other.parts])

    def is_zero(self):
        return not self.parts


def identity_at(base: AlgebraPresentation, z: int) -> RepetitiveElement:
    return RepetitiveElement.make(
        base, [(z, "alg", PathWord(v, ()), 1) for v in base.quiver.vertices])


def _mul_paths(base, p: PathWord, q: PathWord):
    """Function-order product of basis paths (q happens first, then p):
    a basis path, or None when it vanishes."""
    if q.target(base.quiver) != p.source:
        return None
    nf = base.path_normal_form(PathWord(q.source, q.arrows + p.arrows))
    if nf.is_zero:
        return None
    return nf.path


def _strip_prefix(base, dual_key: PathWord, q: PathWord):
    """Left action of a path on a dual functional: remove a leading copy
    of ``q`` from the dualized path."""
    if len(q) > len(dual_key):
        return None
    if dual_key.arrows[:len(q)] != q.arrows or dual_key.source != q.source:
        return None
    rest = dual_key.arrows[len(q):]
    src = q.target(base.quiver)
    return PathWord(src, rest)


def _strip_suffix(base, dual_key: PathWord, q: PathWord):
    """Right action of a path on a dual functional: remove a trailing copy
    of ``q`` from the dualized path."""
    if len(q) > len(dual_key):
        return None
    if len(q) and dual_key.arrows[len(dual_key) - len(q):] != q.arrows:
        return None
    if len(q) == 0 and dual_key.target(base.quiver) != q.source:
        return None
    rest = dual_key.arrows[:len(dual_key) - len(q)]
    return PathWord(dual_key.source, rest)


def repetitive_product(x: RepetitiveElement, y: RepetitiveElement) -> RepetitiveElement:
    """Degreewise product: algebra parts multiply within a degree; the dual
    part of degree ``z`` is acted on by the algebra part of degree ``z + 1``
    on the left and of degree ``z`` on the right.  Two dual parts multiply
    to zero."""
    base = x.base
    if base is not y.base and base.pretty() != y.base.pretty():
        raise PresentationError("elements over different base algebras")
    out = []
    for z1, k1, pk1, c1 in x.parts:
        p1 = PathWord(pk1[0], pk1[1])
        for z2, k2, pk2, c2 in y.parts:
            p2 = PathWord(pk2[0], pk2[1])
            if k1 == "alg" and k2 == "alg" and z1 == z2:
                r = _mul_paths(base, p1, p2)
                if r is not None:
                    out.append((z1, "alg", r, c1 * c2))
            elif k1 == "alg" and k2 == "dual" and z1 == z2 + 1:
                r = _strip_prefix(base, p2, p1)
                if r is not None:
                    out.append((z2, "dual", r, c1 * c2))
            elif k1 == "dual" and k2 == "alg" and z2 == z1:
                r = _strip_suffix(base, p1, p2)
                if r is not None:
                    out.append((z1, "dual", r, c1 * c2))
            # dual * dual vanishes: both product components are zero.
    return RepetitiveElement.make(base, [(z, k, p, c) for z, k, p, c in out])
