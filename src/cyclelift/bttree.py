"""Vertex lattices in the hermitian plane and the Bruhat-Tits tree for
SU(C): duals, types, neighbours, tree distance, r-invariants, and
central lattices.

A lattice is held in a canonical column normal form: generators
p^(-e) * (p^a * v0 + w * v1) and p^(-e) * (p^b * v1) with w reduced mod
p^b and min(a, b, val(w)) = 0.  The tuple (e, a, b, w) identifies the
lattice, so equality is tuple equality.  Its dual, its type and its
tree distance to another vertex are integer functions of the tuple.

Everything here is exact.  Every vertex carries a hyperbolic basis (two
isotropic generators pairing to delta, resp. delta/p, by type) as an
integer matrix over a p-power denominator.  A vertex not reached as a
neighbour (a central lattice, a dual) uses its canonical generators
g1 = p^-e (p^a v0 + w v1), g2 = p^(b-e) v1, which are already
hyperbolic: g2 is isotropic, h(g1, g2) = p^(a+b-2e) delta and
h(g1, g1) = -2 p^(a-2e) Delta wy for w = wx + wy delta.  Type 0 forces
a + b = 2e and type 2 forces a + b = 2e - 1; integrality of h (resp.
p h) then gives p^b | wy, and wy is reduced mod p^b, so wy = 0 and
(g1, g2) pairs to delta, resp. delta/p.  The neighbours of a vertex
with basis (u0, u1) are one integer matrix move each (Serre, Trees,
II.1) and inherit the moved basis, so every basis entry is a rational
integer, and a neighbour's key is an integer column HNF of its basis.

A p-adic vector meets the tree in exact Z[delta] arithmetic.
`from_vectors` (and through it `central_lattice`) takes the column HNF
of two vectors modulo the determinant: the second pivot is p^b with
b = v(det) - a, and the offset is needed only mod p^b.
`VertexLattice.coordinates` writes a vector b = p^-e (b0 v0 + b1 v1)
in a vertex's exact basis (k; a, c, bb, dd) through its numerators
N0 = dd b0 - bb b1 and N1 = a b1 - c b0.  `r_invariant`, a solve
against the canonical form, cross-checks the r that `coordinates` and
the descent below give, and `hyperbolic_basis` hands the exact basis
out as padic.VectorC.

`ball_r_invariants` gives b's r-invariant at every vertex of a ball
without building the ball: the two numerators move to a child's by one
integer step each (coordinate descent), and each carries its
valuation, which p N raises by one and N0 - alpha N1 keeps unless
v(N0) = v(N1).  `ball_vertex` builds the one vertex at a given index
of `tree_ball`'s order, walking the child path that the index spells
out, so a sweep that samples a ball by index needs no ball.
"""

from __future__ import annotations

from cyclelift.errors import DegenerateVectorError
from cyclelift.padic import LocalContext, QuadLocalElem, VectorC, epsilon, pval, qform

_NO_VAL = float("inf")  # valuation of an exact zero


class VertexLattice:
    """An o_{k,p}-lattice in C in canonical form.

    Instances are immutable after construction; equality and hashing
    use the canonical tuple.  `vtype` is 0 or 2 for vertex lattices and
    None for other lattices.
    """

    __slots__ = ("ctx", "denom_exp", "piv0", "piv1", "off", "_hyperbolic")

    def __init__(self, ctx, denom_exp, piv0, piv1, off, _hyperbolic=None):
        self.ctx = ctx
        self.denom_exp = denom_exp
        self.piv0 = piv0
        self.piv1 = piv1
        self.off = off  # pair of ints, reduced mod p^piv1
        self._hyperbolic = _hyperbolic  # exact basis (see _exact_basis), or None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_vectors(cls, u: VectorC, v: VectorC) -> "VertexLattice":
        """Canonicalize the lattice spanned by two vectors: column HNF
        with p-power pivots, taken modulo the determinant (Cohen, A
        Course in Computational Algebraic Number Theory, 2.4.3), then
        the common p-power moved into the denominator.

        Over the common denominator p^-e, with generators as columns
        (m00, m10) and (m01, m11), the first pivot is p^a for a the
        smaller first-row valuation (the columns swapped so that it is
        m00's), the second is p^b with b = v(det) - a, and the offset
        w = m10 (m00 / p^a)^-1 is needed only mod p^b."""
        ctx = u.ctx
        pw = ctx.pows
        e = max(u.denom_exp, v.denom_exp)
        m00 = u.a0.mul_int(pw[e - u.denom_exp])
        m10 = u.a1.mul_int(pw[e - u.denom_exp])
        m01 = v.a0.mul_int(pw[e - v.denom_exp])
        m11 = v.a1.mul_int(pw[e - v.denom_exp])
        vdet = m00.mul(m11).sub(m01.mul(m10)).valuation()
        if vdet is None:
            raise DegenerateVectorError("degenerate lattice (rank < 2)")
        a, a1 = m00.valuation(), m01.valuation()
        if a is None or (a1 is not None and a1 < a):
            m00, m10, a = m01, m11, a1
        b = vdet - a
        w = m10.mul(m00.divide_p_power(a).unit_inverse(b))
        m = pw[b]
        wx, wy = w.x % m, w.y % m
        # Extract content so that min(a, b, val(w)) = 0.
        wv = pval(ctx.p, wx, wy)
        t = min(a, b) if wv is None else min(a, b, wv)
        pt = pw[t]
        return cls(ctx, e - t, a - t, b - t, (wx // pt, wy // pt))

    @property
    def key(self) -> tuple:
        return (self.denom_exp, self.piv0, self.piv1, self.off)

    def __eq__(self, other):
        if not isinstance(other, VertexLattice):
            return NotImplemented
        return self.key == other.key and self.ctx == other.ctx

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        e, a, b, (wx, wy) = self.denom_exp, self.piv0, self.piv1, self.off
        return f"Lattice(p^-{e} * span[(p^{a}, {wx}+{wy}d), (0, p^{b})])"

    # -- basic data --------------------------------------------------------

    def det_valuation(self) -> int:
        """Valuation of the basis determinant (a lattice invariant)."""
        return self.piv0 + self.piv1 - 2 * self.denom_exp

    def scale_p_power(self, k: int) -> "VertexLattice":
        """The lattice p^k * self."""
        return VertexLattice(
            self.ctx, self.denom_exp - k, self.piv0, self.piv1, self.off
        )

    # -- duality and type --------------------------------------------------

    def dual(self) -> "VertexLattice":
        """The dual lattice under h, in canonical form; an involution.

        h(x, y) = delta (x0 conj(y1) - x1 conj(y0)) pairs y into o with
        both generators iff v(y0) >= e - b and v(y0 conj(w) - p^a y1) >= e,
        so the dual is p^-(a+b-e) span{(p^a, conj(w)), (0, p^b)}, which
        is already canonical.
        """
        wx, wy = self.off
        b = self.piv1
        return VertexLattice(
            self.ctx, self.piv0 + b - self.denom_exp, self.piv0, b,
            (wx, -wy % self.ctx.pows[b]),
        )

    @property
    def vtype(self) -> int | None:
        """0 if self-dual, 2 if the dual is p * self, else None: the dual
        has the same offset iff wy = 0, and a + b - e is e, resp. e - 1."""
        if self.off[1]:
            return None
        dv = self.det_valuation()
        return 0 if dv == 0 else 2 if dv == -1 else None

    def require_vertex(self) -> int:
        vt = self.vtype
        if vt is None:
            raise ValueError(f"{self!r} is not a vertex lattice")
        return vt

    # -- membership --------------------------------------------------------

    def r_invariant(self, b: VectorC) -> int:
        """max r such that p^(-r) b lies in the lattice (may be negative).

        The coordinates of b = (c0, c1) in the canonical basis are
        y1 = c0 / p^a and y2 = (c1 p^a - w c0) / p^(a+b), up to the
        denominators; exact integer valuation comparisons throughout.
        """
        a0, a1 = b.a0, b.a1
        if not (a0.x or a0.y or a1.x or a1.y):
            raise DegenerateVectorError("r-invariant of the zero vector")
        ctx = self.ctx
        p, d = ctx.p, ctx.delta_sq
        wx, wy = self.off
        pa = ctx.pows[self.piv0]
        v1 = pval(p, a0.x, a0.y)
        v2 = pval(
            p,
            a1.x * pa - wx * a0.x - d * wy * a0.y,
            a1.y * pa - wx * a0.y - wy * a0.x,
        )
        # b is nonzero, so at most one of the two numerators vanishes.
        if v2 is None:
            r = v1 - self.piv0
        else:
            r = v2 - self.piv0 - self.piv1
            if v1 is not None and v1 - self.piv0 < r:
                r = v1 - self.piv0
        return r + self.denom_exp - b.denom_exp

    def contains(self, b: VectorC) -> bool:
        return self.r_invariant(b) >= 0

    def coordinates(self, b: VectorC) -> tuple[int, QuadLocalElem, QuadLocalElem]:
        """(r, c0, c1) with b = p^r (c0 u0 + c1 u1) in the exact
        hyperbolic basis (u0, u1) and min(v(c0), v(c1)) = 0, so r is
        r_invariant(b): with m = min(v(N0), v(N1)), ci = Ni / p^m and
        r = k - e - v(det) + m."""
        shift, n0, n1 = _numerators(self, b)
        m = min(n0[2], n1[2])
        ctx = self.ctx
        pm = ctx.pows[m]
        return shift + m, ctx.elem(n0[0] // pm, n0[1] // pm), ctx.elem(n1[0] // pm, n1[1] // pm)

    # -- hyperbolic basis and neighbours ------------------------------------

    def _exact_basis(self) -> tuple:
        """The exact hyperbolic basis (k, a, c, b, d, va, vb, vdet):
        u0 = p^-k (a v0 + c v1) and u1 = p^-k (b v0 + d v1) with integer
        entries, v(a), v(b) (_NO_VAL for b = 0) and v(ad - bc).  Inherited
        from the parent when reached as a neighbour, else the canonical
        generators."""
        if self._hyperbolic is None:
            self.require_vertex()
            a, b = self.piv0, self.piv1
            pw = self.ctx.pows
            self._hyperbolic = (self.denom_exp, pw[a], self.off[0], 0, pw[b], a, _NO_VAL, a + b)
        return self._hyperbolic

    def hyperbolic_basis(self) -> tuple[VectorC, VectorC]:
        """An o-basis (u0, u1) of isotropic vectors with h(u0, u1) equal
        to delta (type 0) or delta/p (type 2), exactly: the basis a
        neighbour inherits, else the canonical generators."""
        k, a, c, b, d = self._exact_basis()[:5]
        ctx = self.ctx
        return ctx.vector_from_ints((a, 0), (c, 0), k), ctx.vector_from_ints((b, 0), (d, 0), k)

    def neighbors(self) -> list["VertexLattice"]:
        """The p+1 adjacent vertex lattices, of the opposite type.

        Ordering is deterministic: the 'infinity' neighbour first, then
        the residue representatives alpha = 0, ..., p-1.  From type 0
        they are span{p^-1 u0, u1} and span{u0, p^-1 (alpha u0 + u1)},
        from type 2 span{u0, p u1} and span{p u0, alpha u0 + u1}: on the
        integer columns, the infinity child multiplies column 1 by p and
        child alpha is (p col0, alpha col0 + col1), and k rises by one
        from type 0.  Every child's determinant gains one factor of p.
        """
        return self._children(None)

    def _children(self, parent: int | None) -> list["VertexLattice"]:
        """The neighbours in `neighbors` order, without the one at index
        `parent` (0 for infinity, 1 for alpha = 0; None keeps all).  A
        neighbour's own neighbour at index 1 is this vertex when it is
        the infinity neighbour, and at index 0 otherwise."""
        k, a, c, b, d, va, vb, vdet = self._exact_basis()
        ctx = self.ctx
        p = ctx.p
        if self.vtype == 0:
            k += 1
        vdet += 1
        out = []
        if parent != 0:
            out.append(_child(ctx, (k, a, c, p * b, p * d, va, vb + 1, vdet)))
        pa, pc, va1 = p * a, p * c, va + 1
        for alpha in range(1 if parent == 1 else 0, p):
            b1 = alpha * a + b
            if alpha == 0 or vb < va:
                vb1 = vb
            elif va < vb:
                vb1 = va
            else:
                vb1 = pval(p, b1, 0)  # b1 >= a > 0: entries are non-negative
            out.append(_child(ctx, (k, pa, pc, b1, alpha * c + d, va1, vb1, vdet)))
        return out


def _child(ctx: LocalContext, basis: tuple) -> VertexLattice:
    """The vertex spanned by an exact basis, keyed by an integer column
    HNF: the pivot column has the smaller first-row valuation A, the
    second pivot is p^B with B = v(det) - A, the offset is
    w = c / (a / p^A) mod p^B for the pivot column (a, c), and the
    content t = min(A, B, v(w)) moves into the denominator."""
    k, a, c, b, d, va, vb, vdet = basis
    if vb < va:
        A, a, c = vb, b, d
    else:
        A = va
    B = vdet - A
    pw = ctx.pows
    t = A if A < B else B
    if B:
        m = pw[B]
        w = c * pow(a // pw[A], -1, m) % m
        while t and w % pw[t]:
            t -= 1
    else:
        w = 0
    return VertexLattice(ctx, k - t, A - t, B - t, (w // pw[t], 0), basis)


# -- standard lattices and tree operations ----------------------------------


def standard_lattices(ctx: LocalContext) -> tuple[VertexLattice, VertexLattice]:
    """The base vertex: Lambda0 = span{v0, v1} (type 0) and its
    neighbour Lambda0' = span{p^-1 v0, v1} (type 2), whose exact bases
    (0; 1, 0, 0, 1) and (1; 1, 0, 0, p) are seeded from their keys."""
    return VertexLattice(ctx, 0, 0, 0, (0, 0)), VertexLattice(ctx, 1, 0, 1, (0, 0))


def central_lattice(b: VectorC) -> VertexLattice:
    """The unique vertex lattice containing the rescaled b primitively:
    span{b0, epsilon(b0)} where b0 = p^-t b has ord q in {0, -1}.

    Type 0 when ord q(b) is even, type 2 when odd; raises
    DegenerateVectorError for isotropic b.
    """
    q = qform(b)
    if q.is_isotropic:
        raise DegenerateVectorError("central lattice of an isotropic vector")
    t = -((-q.valuation) // 2)  # ceil(ord/2)
    b0 = b.scale_p_power(-t)
    return VertexLattice.from_vectors(b0, epsilon(b0))


def distance(lat: VertexLattice, other: VertexLattice) -> int:
    """Graph distance on the tree via the elementary divisors of the
    transition matrix X between the canonical bases: the geodesic length
    is val(det X) - 2 min val(X_ij).

    For the keys (e, a, b, w) and (f, c, d, x), with w and x integers
    at a vertex, X is p^(e-f-a-b) times
    [[p^(b+c), 0], [p^a x - p^c w, p^(a+d)]].  Exact and O(1); the test
    suite checks it against a breadth-first search over neighbours.
    """
    lat.require_vertex()
    other.require_vertex()
    e, a, b, (w, _) = lat.key
    f, c, d, (x, _) = other.key
    pw = lat.ctx.pows
    low = b + c if b + c < a + d else a + d
    vx = pval(lat.ctx.p, pw[a] * x - pw[c] * w, 0)
    if vx is not None and vx < low:
        low = vx
    dist = other.det_valuation() - lat.det_valuation() - 2 * (low + e - f - a - b)
    if dist < 0:
        raise AssertionError("negative tree distance; canonical-form bug")
    return dist


def tree_ball(center: VertexLattice, radius: int) -> list[tuple[VertexLattice, int]]:
    """All vertex lattices within tree distance `radius` of `center`,
    with their distances, breadth first in `neighbors` order.  The
    children of a vertex are its neighbours minus its parent, which is
    left out by index and never built (see `_children`)."""
    center.require_vertex()
    out = [(center, 0)]
    frontier = [(center, None)]
    for depth in range(1, radius + 1):
        nxt = []
        for node, parent in frontier:
            # The infinity child, first unless it is the parent, finds its
            # parent at index 1; every other child at index 0.
            for i, nb in enumerate(node._children(parent)):
                out.append((nb, depth))
                nxt.append((nb, 1 if i == 0 and parent != 0 else 0))
        frontier = nxt
    return out


def ball_vertex(center: VertexLattice, index: int) -> tuple[VertexLattice, int]:
    """tree_ball(center, R)[index], for any R that reaches it, built
    alone.  Past the centre, an index is a sphere and an offset in it,
    and the offset is the child path in mixed radix: the centre's child
    (p + 1 of them) is the leading digit, then one base-p digit per
    level, each indexing `_children` as `tree_ball` walks them."""
    center.require_vertex()
    if index == 0:
        return center, 0
    p = center.ctx.p
    depth, offset, sphere = 1, index - 1, p + 1
    while offset >= sphere:
        offset -= sphere
        depth, sphere = depth + 1, sphere * p
    digits = []
    for _ in range(depth - 1):
        offset, digit = divmod(offset, p)
        digits.append(digit)
    lat, parent = center, None
    for digit in [offset, *reversed(digits)]:
        lat, parent = lat._children(parent)[digit], 1 if digit == 0 and parent != 0 else 0
    return lat, depth


def ball_size(p: int, radius: int) -> int:
    """len(tree_ball(center, radius)) in the (p + 1)-regular tree:
    1 + (p + 1)(p^R - 1)/(p - 1), with R = max(radius, 0)."""
    return 1 + (p + 1) * (p ** max(radius, 0) - 1) // (p - 1)


def ball_r_invariants(
    center: VertexLattice, b: VectorC, radius: int
) -> list[tuple[int, int]]:
    """[(lat.r_invariant(b), d) for lat, d in tree_ball(center, radius)]
    by coordinate descent from the centre's exact basis, with no
    lattice built past the centre.

    With the basis (k; a, c, bb, dd) and b = p^-e (b0 v0 + b1 v1), the
    numerators N0 = dd b0 - bb b1 and N1 = a b1 - c b0 give
    r = k - e - v(det) + min(v(N0), v(N1)).  The infinity child maps
    (N0, N1) to (p N0, N1) and child alpha to (N0 - alpha N1, p N1);
    each child has v(det) + 1, and k + 1 under a type-0 parent.
    """
    vt = center.require_vertex()
    p = center.ctx.p
    shift, n0, n1 = _numerators(center, b)
    out = [(shift + min(n0[2], n1[2]), 0)]
    frontier = [(n0, n1, None)]
    ptype = vt
    for depth in range(1, radius + 1):
        if ptype == 2:
            shift -= 1
        ptype = 2 - ptype
        nxt = []
        for n0, n1, parent in frontier:
            x0, y0, v0 = n0
            x1, y1, v1 = n1
            pv1 = v1 + 1
            pn1 = (p * x1, p * y1, pv1)
            if parent != 0:
                pv0 = v0 + 1
                out.append((shift + (pv0 if pv0 < v1 else v1), depth))
                nxt.append(((p * x0, p * y0, pv0), n1, 1))
            if parent != 1:  # alpha = 0 keeps N0
                out.append((shift + (v0 if v0 < pv1 else pv1), depth))
                nxt.append((n0, pn1, 0))
            # N0 - alpha N1 for a unit alpha: its valuation is the
            # smaller one unless v(N0) = v(N1).
            low = v0 if v0 < v1 else v1
            for alpha in range(1, p):
                x, y = x0 - alpha * x1, y0 - alpha * y1
                if v0 == v1:
                    low = pval(p, x, y)
                    if low is None:
                        low = _NO_VAL
                out.append((shift + (low if low < pv1 else pv1), depth))
                nxt.append(((x, y, low), pn1, 0))
        frontier = nxt
    return out


def _numerators(lat: VertexLattice, b: VectorC) -> tuple:
    """(k - e - v(det), N0, N1) for b = p^-e (b0 v0 + b1 v1) in the
    vertex's exact basis (k; a, c, bb, dd), each numerator as
    (x, y, v(x + y delta)) with _NO_VAL for zero: N0 = dd b0 - bb b1 and
    N1 = a b1 - c b0, so that b = p^(k-e-v(det)) (N0 u0 + N1 u1).  The
    determinant is exactly p^v(det): the canonical generators' is
    p^(a+b), and each neighbour move multiplies it by p."""
    k, a, c, bb, dd, _, _, vdet = lat._exact_basis()
    b0, b1 = b.a0, b.a1
    if not (b0.x or b0.y or b1.x or b1.y):
        raise DegenerateVectorError("r-invariant of the zero vector")
    nums = []
    for n in (b0.mul_int(dd).sub(b1.mul_int(bb)), b1.mul_int(a).sub(b0.mul_int(c))):
        v = n.valuation()
        nums.append((n.x, n.y, _NO_VAL if v is None else v))
    return k - vdet - b.denom_exp, nums[0], nums[1]
