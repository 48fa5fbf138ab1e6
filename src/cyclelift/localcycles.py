"""Local unitary and orthogonal special cycles as divisors on the
tree: multiplicities, full decompositions, local equations, F-point
classification, and the orthogonal/unitary comparison.

A cycle is its central lattice and a depth profile (the vertical
multiplicity at each tree distance from the centre), so building one
enumerates nothing; its support is labelled for output in one walk
from Lambda0.

Special homomorphisms are identified with their image vectors in C;
units in Z_p^x are dropped throughout, since all the outputs below
depend only on valuations and on the line spanned by the vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii

from cyclelift.bttree import (
    VertexLattice,
    central_lattice,
    distance,
    standard_lattices,
    tree_ball,
)
from cyclelift.errors import EmptyIntersectionError, NotAdjacentError
from cyclelift.padic import QuadLocalElem, VectorC, epsilon, ord_qform

PLUS = "plus"
MINUS = "minus"


@dataclass(frozen=True)
class SpecialHom:
    """A special homomorphism of sign +/-, identified with its image
    vector; ord_qpm is the valuation of its norm form q^+/q^-.

    Norm relations: q(vec) = p^-1 q^+ for the linear (+) case and
    q(vec) = q^- for the antilinear (-) case.
    """

    sign: str
    vec: VectorC
    ord_qpm: int

    @classmethod
    def from_vector(cls, sign: str, vec: VectorC) -> "SpecialHom":
        if sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
        ord_q = ord_qform(vec)  # DegenerateVectorError on isotropic
        ord_qpm = ord_q + 1 if sign == PLUS else ord_q
        if ord_qpm < 0:
            raise ValueError(
                f"special homomorphism must have integral norm; ord q^+- = {ord_qpm}"
            )
        return cls(sign=sign, vec=vec, ord_qpm=ord_qpm)

    @property
    def t_value(self) -> int:
        """t with ord_qpm = 2t (even) or 2t - 1 (odd)."""
        return -((-self.ord_qpm) // 2)

    def central(self) -> VertexLattice:
        return central_lattice(self.vec)


@dataclass(frozen=True)
class OrthEndo:
    """A traceless quasi-endomorphism with square u^2 p^(2 alpha) Delta,
    stored through an eigenvector of the positive eigenvalue.

    The eigenvector is rescaled so ord q lies in {0, -1}; nu_p = 1 iff
    that valuation is odd (i.e. -1), else nu_p = p.
    """

    alpha: int
    eigvec: VectorC
    nu_p: int

    @classmethod
    def from_eigenvector(cls, alpha: int, vec: VectorC) -> "OrthEndo":
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        ord_q = ord_qform(vec)
        t = -((-ord_q) // 2)
        scaled = vec.scale_p_power(-t)
        nu_p = 1 if ord_q % 2 != 0 else vec.ctx.p
        return cls(alpha=alpha, eigvec=scaled, nu_p=nu_p)

    def central(self) -> VertexLattice:
        return central_lattice(self.eigvec)


@dataclass(frozen=True)
class LocalCycle:
    """Divisor data around a central lattice: profile[d] is the vertical
    multiplicity of the projective line of every vertex at tree distance
    d from the centre (zero past the end), and `horizontal` counts the
    horizontal components, all through the centre."""

    center: VertexLattice
    profile: tuple[int, ...]
    horizontal: int

    @property
    def vertical(self) -> dict[VertexLattice, int]:
        """The vertical multiplicities on the support, enumerated on
        demand."""
        if not self.profile:
            return {}
        ball = tree_ball(self.center, len(self.profile) - 1)
        return {lat: self.profile[d] for lat, d in ball}

    def vertical_multiplicity(self, lat: VertexLattice) -> int:
        d = distance(lat, self.center)
        return self.profile[d] if d < len(self.profile) else 0

    def horizontal_count(self, lat: VertexLattice) -> int:
        return self.horizontal if lat == self.center else 0


def mult_from_depth(ord_qpm: int, d: int) -> int:
    """The vertical multiplicity at a vertex that contains the vector, at
    tree distance d from the central lattice: t - floor(d/2) or
    t - floor((d+1)/2) by the parity of ord q^+-, t = ceil(ord q^+- / 2)."""
    t = -((-ord_qpm) // 2)
    if ord_qpm % 2 == 0:
        return t - d // 2
    return t - (d + 1) // 2


def multiplicity(hom: SpecialHom, lat: VertexLattice, depth: int | None = None) -> int:
    """Vertical multiplicity m(b, Lambda): zero unless the vector lies
    in the lattice, else t - floor(d/2) or t - floor((d+1)/2) by the
    parity of ord q^+-, with d the tree distance to the central
    lattice.

    A caller that already knows d (a ball enumeration around the
    central lattice) passes it as `depth`; the membership test stays an
    independent exact solve either way."""
    if lat.r_invariant(hom.vec) < 0:
        return 0
    d = distance(lat, hom.central()) if depth is None else depth
    m = mult_from_depth(hom.ord_qpm, d)
    if m < 0:
        raise AssertionError("negative multiplicity with membership; formula bug")
    return m


def unitary_cycle(hom: SpecialHom) -> LocalCycle:
    """Full decomposition of the unitary cycle: one horizontal
    component through the central lattice plus the vertical lines given
    by the multiplicity formula, positive out to distance ord_qpm - 1."""
    profile = tuple(mult_from_depth(hom.ord_qpm, d) for d in range(hom.ord_qpm))
    return LocalCycle(center=hom.central(), profile=profile, horizontal=1)


def orthogonal_cycle(j: OrthEndo) -> LocalCycle:
    """Decomposition of the orthogonal cycle: vertical multiplicity
    max(alpha - d, 0) around the central lattice, and two horizontal
    components there."""
    return LocalCycle(center=j.central(), profile=tuple(range(j.alpha, 0, -1)), horizontal=2)


def orthogonal_multiplicity(j: OrthEndo, lat: VertexLattice) -> int:
    """max(alpha - d(Lambda, Lambda_0), 0)."""
    return max(j.alpha - distance(lat, j.central()), 0)


def split_pair(j: OrthEndo) -> tuple[SpecialHom, SpecialHom]:
    """The pair of special homomorphisms whose cycles sum to the
    orthogonal cycle.

    For alpha >= 1 the vectors are the eigenvector scaled by
    nu^-1 p^(alpha/2) / p^(alpha/2) (alpha even), resp.
    p^((alpha-1)/2) / nu^-1 p^((alpha+1)/2) (alpha odd); exactly one of
    the two norms has valuation alpha, the other alpha - 1.  For
    alpha = 0 both homomorphisms share a sign and use the eigenvector
    and its conjugate.
    """
    b0 = j.eigvec
    nu_exp = 1 if j.nu_p != 1 else 0  # nu = p^nu_exp
    if j.alpha == 0:
        sign = PLUS if j.nu_p == 1 else MINUS
        return (
            SpecialHom.from_vector(sign, b0),
            SpecialHom.from_vector(sign, epsilon(b0)),
        )
    if j.alpha % 2 == 0:
        half = j.alpha // 2
        vec_plus = b0.scale_p_power(half - nu_exp)
        vec_minus = b0.scale_p_power(half)
    else:
        vec_plus = b0.scale_p_power((j.alpha - 1) // 2)
        vec_minus = b0.scale_p_power((j.alpha + 1) // 2 - nu_exp)
    return (
        SpecialHom.from_vector(PLUS, vec_plus),
        SpecialHom.from_vector(MINUS, vec_minus),
    )


class FiberKind(Enum):
    EMPTY = "empty"
    SINGLE_POINT = "single_point"
    FULL_LINE = "full_line"


@dataclass(frozen=True)
class FiberPoints:
    kind: FiberKind
    superspecial: bool | None = None  # set only for SINGLE_POINT


def fiber_points(hom: SpecialHom, lat: VertexLattice) -> FiberPoints:
    """Classification of the F-points of the cycle on one projective
    line: empty / a single special point / the full line, by the
    r-invariant, the lattice type, and the sign."""
    vt = lat.require_vertex()
    r = lat.r_invariant(hom.vec)
    if r < 0:
        return FiberPoints(FiberKind.EMPTY)
    if r >= 1:
        return FiberPoints(FiberKind.FULL_LINE)
    # r == 0: primitive membership
    if hom.sign == MINUS:
        if vt == 0:
            return FiberPoints(FiberKind.SINGLE_POINT, superspecial=hom.ord_qpm > 0)
        return FiberPoints(FiberKind.EMPTY)
    if vt == 0:
        return FiberPoints(FiberKind.FULL_LINE)
    return FiberPoints(FiberKind.SINGLE_POINT, superspecial=hom.ord_qpm > 0)


@dataclass(frozen=True)
class OrdinaryEquation:
    """Local equation of the cycle on the ordinary chart of one
    projective line: p^p_exp * (c0 T + c1) on a type-0 line and
    p^p_exp * (c0 + c1 T) on a type-2 line, in a hyperbolic basis.

    The coefficient pair is primitive; it is a unit of the chart ring
    exactly away from the central lattice, so p_exp equals the vertical
    multiplicity.
    """

    p_exp: int
    c0: QuadLocalElem
    c1: QuadLocalElem
    vtype: int

    def residual_is_unit(self) -> bool:
        """Whether the linear factor is a unit of the ordinary chart,
        detected by p | (c0 c1' - c0' c1)."""
        c0, c1 = self.c0, self.c1
        v = c0.mul(c1.conj()).sub(c0.conj().mul(c1)).valuation()
        return v is None or v >= 1


def ordinary_equation(hom: SpecialHom, lat: VertexLattice) -> OrdinaryEquation:
    """The local equation of the cycle on the ordinary chart at a
    vertex lattice the vector lies in.

    Type 0: f = p^r (a0 T + a1) for the antilinear sign and
    p^(r+1) (a0' T + a1') for the linear sign; type 2: f = p^r (a0 + a1 T)
    for the linear sign, conjugated coefficients for the antilinear
    sign, with r and (a0, a1) from `VertexLattice.coordinates`.  Raises
    EmptyIntersectionError when the vector is outside.
    """
    vt = lat.require_vertex()
    r, alpha0, alpha1 = lat.coordinates(hom.vec)
    if r < 0:
        raise EmptyIntersectionError("vector not in the lattice; cycle misses chart")
    if (hom.sign == MINUS) == (vt == 2):
        alpha0, alpha1 = alpha0.conj(), alpha1.conj()
    p_exp = r + 1 if hom.sign == PLUS and vt == 0 else r
    return OrdinaryEquation(p_exp=p_exp, c0=alpha0, c1=alpha1, vtype=vt)


def superspecial_exponents(
    hom: SpecialHom, lat0: VertexLattice, lat2: VertexLattice
) -> tuple[int, int]:
    """Vanishing exponents (e_T0, e_T1) of the cycle at the
    superspecial point of an adjacent pair (type 0, type 2):
    (r', r) for the antilinear sign and (r', r+1) for the linear sign,
    clamped at zero when the point misses the cycle."""
    if lat0.require_vertex() != 0 or lat2.require_vertex() != 2:
        raise NotAdjacentError("expected a (type 0, type 2) pair")
    if distance(lat0, lat2) != 1:
        raise NotAdjacentError("lattices are not tree neighbours")
    r = lat0.r_invariant(hom.vec)
    rp = lat2.r_invariant(hom.vec)
    if hom.sign == MINUS:
        return (max(rp, 0), max(r, 0))
    return (max(rp, 0), max(r + 1, 0))


# -- serialization -----------------------------------------------------------


def path_words(center: VertexLattice, profile) -> dict:
    """Label a cycle's support, the ball of radius len(profile) - 1
    around `center` (the centre alone for an empty profile), by
    neighbour-index paths from Lambda0: map each vertex to its word and
    its distance from the centre.

    Lambda0 gets the empty word; a child reached as neighbour i of a
    word w gets w + '.' + str(i).  One breadth-first walk from Lambda0
    follows only the geodesic to the centre until it enters the ball
    (a ball is convex, so every geodesic from Lambda0 into it enters at
    that vertex), then takes every child inside the ball.  Each vertex
    is reached along its geodesic from Lambda0, so it has the neighbour
    order a search from Lambda0 would give it.  A child is one step
    farther from the centre than its parent except on that geodesic, so
    `distance` is called only there."""
    radius = max(len(profile) - 1, 0)
    lam0, _ = standard_lattices(center.ctx)
    d = distance(lam0, center)
    labels = {}
    # ahead: the vertex is on the geodesic to the centre, short of it.
    frontier = [(lam0, None, "", d, d > 0)]
    while frontier:
        nxt = []
        for node, parent_key, word, d, ahead in frontier:
            if d <= radius:
                labels[node] = (word, d)
            if d == radius and not ahead:
                continue
            for i, nb in enumerate(node.neighbors()):
                if nb.key == parent_key:
                    continue
                if ahead and distance(nb, center) < d:
                    ahead, child = False, (d - 1, d > 1)
                elif d < radius:
                    child = (d + 1, False)
                else:
                    continue
                nxt.append((nb, node.key, f"{word}.{i}" if word else str(i), *child))
        frontier = nxt
    return labels


def cycle_json_chunks(cycle: LocalCycle):
    """The cycle's JSON text, in chunks: the horizontal component, the
    vertical multiplicities and each vertex's canonical-form data
    (denom_exp, off, pivots), laid out as json.dumps(..., sort_keys=True,
    indent=2) + "\\n" would lay them out.  Both lists follow the path
    words' order, sorted once, and every entry is one f-string formatted
    straight from its vertex, so the whole text is never held at once.
    path_words labels the ball of radius len(profile) - 1, so every label
    carries a vertical line unless the profile is empty."""
    labels = path_words(cycle.center, cycle.profile)
    profile = cycle.profile
    entries = [(encode_basestring_ascii(word), d, lat)
               for lat, (word, d) in sorted(labels.items(), key=lambda item: item[1][0])]
    yield (f'{{\n  "horizontal": [\n    {{\n      "count": {cycle.horizontal},\n'
           f'      "vertex": {encode_basestring_ascii(labels[cycle.center][0])}\n'
           '    }\n  ],\n  "vertical": [')
    if profile:
        sep = "\n"
        for word, d, _ in entries:
            yield f'{sep}    {{\n      "mult": {profile[d]},\n      "vertex": {word}\n    }}'
            sep = ",\n"
        yield "\n  "
    yield '],\n  "vertices": {'
    sep = "\n"
    for word, _, lat in entries:
        off0, off1 = lat.off
        yield (f'{sep}    {word}: {{\n      "denom_exp": {lat.denom_exp},\n      "off": [\n'
               f'        {off0},\n        {off1}\n      ],\n      "pivots": [\n'
               f'        {lat.piv0},\n        {lat.piv1}\n      ]\n    }}')
        sep = ",\n"
    yield "\n  }\n}\n"


# The writer's own text parsed back, so the format has one source;
# perfbench/tracing.py wraps this name, so it stays public.
def cycle_to_json_dict(cycle: LocalCycle) -> dict:
    """The cycle's JSON form, as `cycle_json_chunks` writes it."""
    return json.loads("".join(cycle_json_chunks(cycle)))
