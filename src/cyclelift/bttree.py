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

`sphere_r_invariants` streams b's r-invariants over a ball, one list
per sphere, without building the ball: the two numerators move to a
child's by one integer step each (coordinate descent), and each carries
its valuation, which p N raises by one and N0 - alpha N1 keeps unless
v(N0) = v(N1), so where they differ the p - 1 unit-alpha children share
one r and are handled as one block.  The subtree under such a child is
flat: the p^k vertices k spheres below it share one r, and the descent
carries them as one run.  `sphere_numerators` hands each sphere's
numerators over with its r, so a sweep reads b's coordinates at every
ball vertex off the same walk.  `ball_vertex` builds the one
vertex at a given index of `tree_ball`'s order: the centre's exact
basis walks the child path that the index spells out by the same
integer moves as `neighbors`, and only the last basis is canonicalised,
so a sweep that samples a ball by index builds one lattice per sample
and no ball.
"""

from __future__ import annotations

from typing import Iterator

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
        p = ctx.p
        e = max(u.denom_exp, v.denom_exp)
        m00 = u.a0.mul_int(p ** (e - u.denom_exp))
        m10 = u.a1.mul_int(p ** (e - u.denom_exp))
        m01 = v.a0.mul_int(p ** (e - v.denom_exp))
        m11 = v.a1.mul_int(p ** (e - v.denom_exp))
        vdet = m00.mul(m11).sub(m01.mul(m10)).valuation()
        if vdet is None:
            raise DegenerateVectorError("degenerate lattice (rank < 2)")
        a, a1 = m00.valuation(), m01.valuation()
        if a is None or (a1 is not None and a1 < a):
            m00, m10, a = m01, m11, a1
        b = vdet - a
        w = m10.mul(m00.divide_p_power(a).unit_inverse(b))
        m = p**b
        wx, wy = w.x % m, w.y % m
        # Extract content so that min(a, b, val(w)) = 0.
        wv = pval(p, wx, wy)
        t = min(a, b) if wv is None else min(a, b, wv)
        pt = p**t
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
            (wx, -wy % self.ctx.p**b),
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
        pa = p**self.piv0
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
        pm = ctx.p**m
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
            p = self.ctx.p
            self._hyperbolic = (self.denom_exp, p**a, self.off[0], 0, p**b, a, _NO_VAL, a + b)
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
        return self.children(None)

    def children(self, up: int | None) -> list["VertexLattice"]:
        """The neighbours in `neighbors` order, without the one at index
        `up` (0 for infinity, 1 for alpha = 0; None keeps all), which is
        never built.  A neighbour's own neighbour at index 1 is this
        vertex when it is the infinity neighbour, and at index 0 otherwise."""
        ctx = self.ctx
        steps = _steps(ctx.p, self._exact_basis(), self.vtype,
                       [n for n in range(ctx.p + 1) if n != up])
        return [_child(ctx, basis) for basis in steps]


def _steps(p: int, basis: tuple, vtype: int, positions) -> Iterator[tuple]:
    """The exact bases of the neighbours at `positions` in `neighbors`
    order (0 for infinity, 1 + alpha) of a vertex of type `vtype` with
    exact basis `basis`, as integer matrix moves, none canonicalised."""
    k, a, c, b, d, va, vb, vdet = basis
    if vtype == 0:
        k += 1
    vdet += 1
    pa, pc, va1 = p * a, p * c, va + 1
    for n in positions:
        if n == 0:
            yield (k, a, c, p * b, p * d, va, vb + 1, vdet)
            continue
        alpha = n - 1
        b1 = alpha * a + b
        if alpha == 0 or vb < va:
            vb1 = vb
        elif va < vb:
            vb1 = va
        else:
            vb1 = pval(p, b1, 0)  # b1 >= a > 0: entries are non-negative
        yield (k, pa, pc, b1, alpha * c + d, va1, vb1, vdet)


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
    p = ctx.p
    t = A if A < B else B
    if B:
        m = p**B
        w = c * pow(a // p**A, -1, m) % m
        while t and w % p**t:
            t -= 1
    else:
        w = 0
    return VertexLattice(ctx, k - t, A - t, B - t, (w // p**t, 0), basis)


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
    if q is None:
        raise DegenerateVectorError("central lattice of an isotropic vector")
    t = -(-q // 2)  # ceil(ord/2)
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
    p = lat.ctx.p
    low = b + c if b + c < a + d else a + d
    vx = pval(p, p**a * x - p**c * w, 0)
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
    left out by index and never built (see `children`).  Sphere d ends
    at index ball_size(p, d) - 1 and, for d >= 1, opens at ball_size(p, d - 1)
    with its only infinity child, whose parent is its neighbour 1; any other
    vertex's parent is its neighbour 0, and every other neighbour is a step out."""
    center.require_vertex()
    out = [(center, 0)]
    frontier = [(center, None)]
    for depth in range(1, radius + 1):
        nxt = []
        for node, parent in frontier:
            # Child 0 is the infinity child unless the parent is (see `children`).
            for i, nb in enumerate(node.children(parent)):
                out.append((nb, depth))
                nxt.append((nb, 1 if i == 0 and parent != 0 else 0))
        frontier = nxt
    return out


def ball_vertex(center: VertexLattice, index: int) -> tuple[VertexLattice, int]:
    """tree_ball(center, R)[index], for any R that reaches it, built
    alone.  Past the centre, an index is a sphere and an offset in it,
    and the offset is the child path in mixed radix: the centre's child
    (p + 1 of them) is the leading digit, then one base-p digit per
    level, each indexing `children` as `tree_ball` walks them.  The
    centre's exact basis walks that path by integer steps, and only the
    last basis is canonicalised, so one lattice is built."""
    vtype = center.require_vertex()
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
    basis, parent = center._exact_basis(), None
    for digit in [offset, *reversed(digits)]:
        # The child's position in `neighbors` order, past the parent's.
        n = digit if parent is None or digit < parent else digit + 1
        basis = next(_steps(p, basis, vtype, (n,)))
        vtype, parent = 2 - vtype, 1 if n == 0 else 0
    return _child(center.ctx, basis), depth


def ball_size(p: int, radius: int) -> int:
    """len(tree_ball(center, radius)) in the (p + 1)-regular tree:
    1 + (p + 1)(p^R - 1)/(p - 1), with R = max(radius, 0)."""
    return 1 + (p + 1) * (p ** max(radius, 0) - 1) // (p - 1)


def sphere_r_invariants(
    center: VertexLattice, b: VectorC, radius: int
) -> Iterator[list[int]]:
    """For each sphere d = 0 ... radius of tree_ball(center, radius), the
    list of lat.r_invariant(b) over its vertices, in the ball's order, by
    coordinate descent from the centre's exact basis, with no lattice
    built past the centre.  A bad centre or a zero b raises here, before
    the first sphere.

    With the basis (k; a, c, bb, dd) and b = p^-e (b0 v0 + b1 v1), the
    numerators N0 = dd b0 - bb b1 and N1 = a b1 - c b0 give
    r = k - e - v(det) + min(v(N0), v(N1)).  The infinity child maps
    (N0, N1) to (p N0, N1) and child alpha to (N0 - alpha N1, p N1);
    each child has v(det) + 1, and k + 1 under a type-0 parent.  A flat
    subtree, where every r is known, is carried as one run (see
    `_sphere`), so the descent's Python steps scale with the vertices
    outside such runs, not with the ball.
    """
    return (rs for rs, _ in _descend(center, b, radius, False))


def sphere_numerators(
    center: VertexLattice, b: VectorC, radius: int
) -> Iterator[tuple[list[int], list[tuple]]]:
    """sphere_r_invariants with each sphere's numerators: (rs, nums), where
    nums[k] is the (N0, N1, parent position) that the descent carries for
    the sphere's vertex k, each numerator (x, y, v) with v = v(x + y delta)
    (_NO_VAL for zero), so that `coordinates` at that vertex of tree_ball
    gives ci = Ni / p^min(v(N0), v(N1)).  In a unit-alpha block, and at
    every vertex of a flat run below one (alpha = 0 children included),
    N0 is (None, None, v): only its valuation is known, and it is below
    v(N1).  A run hands over one tuple per vertex, the same tuple repeated.
    The last sphere's numerators come only when it holds a vertex with
    r >= 0 (else its nums is empty)."""
    for depth, (rs, frontier) in enumerate(_descend(center, b, radius, True)):
        nums = []
        if depth < radius or max(rs) >= 0:
            for n0, n1, parent, count in frontier:
                nums += [(n0, n1, parent)] * count
        yield rs, nums


def _descend(center: VertexLattice, b: VectorC, radius: int, numerators: bool):
    """The centre's numerators, read at once (so a bad centre or a zero b
    raises before the first sphere), and a generator of each sphere's
    (rs, frontier) out to `radius`, the frontier being its entries'
    (N0, N1, parent position, count) as `_sphere` takes them.  The last
    sphere's frontier is made only if `numerators` asks for it (else it is
    empty)."""
    ptype = center.require_vertex()
    shift, n0, n1 = _numerators(center, b)
    return _spheres(center.ctx.p, ptype, shift, n0, n1, radius, numerators)


def _spheres(p: int, ptype: int, shift: int, n0, n1, radius: int, numerators: bool):
    """_descend's generator, from the centre's type, shift and numerators.
    Each sphere is made in one `_sphere` pass: the last builds its
    frontier only for `numerators`, which runs keep small."""
    frontier = [(n0, n1, None, 1)]
    yield [shift + min(n0[2], n1[2])], frontier
    for depth in range(1, radius + 1):
        if ptype == 2:
            shift -= 1
        ptype = 2 - ptype
        sphere, frontier = _sphere(p, shift, frontier, numerators or depth < radius)
        yield sphere, frontier


def _sphere(p: int, shift: int, frontier: list, build: bool) -> tuple[list, list]:
    """The r list of the sphere whose parents make up `frontier`, and the
    sphere's own frontier if `build` (else an empty list), `shift` being
    the sphere's k - e - v(det).  Each frontier entry (N0, N1, parent
    position, count) stands for `count` consecutive vertices of its sphere
    that all carry those numerators.

    An entry whose parent sits at index 0 and whose numerators have
    v(N0) < v(N1) is flat: it has no infinity child, and its alpha = 0
    child (N0, p N1) and unit-alpha children (N0 - alpha N1, p N1) all have
    v(N0) < v(p N1), their parent at index 0 and the r of v(N0), so they are
    flat again.  So a flat run of `count` vertices adds count * p copies of
    one r and hands on one run of count * p vertices, N0 known by its
    valuation alone.  Only flat entries have a count above 1.

    Elsewhere, where v(N0) != v(N1), every unit alpha gives N0 - alpha N1
    the valuation low = min(v(N0), v(N1)) < v(p N1), so the p - 1 unit-alpha
    children share the r of `low` and go on as one flat run, N0 known by
    its valuation alone."""
    units = p - 1
    sphere, nxt = [], []
    for n0, n1, parent, count in frontier:
        x0, y0, v0 = n0
        x1, y1, v1 = n1
        pv1 = v1 + 1
        if build:
            pn1 = (p * x1, p * y1, pv1)
        if parent == 0 and v0 < v1:
            count *= p
            sphere += [shift + v0] * count
            if build:
                nxt.append(((None, None, v0), pn1, 0, count))
            continue
        if parent != 0:
            pv0 = v0 + 1
            sphere.append(shift + (pv0 if pv0 < v1 else v1))
            if build:
                nxt.append(((p * x0, p * y0, pv0), n1, 1, 1))
        if parent != 1:  # alpha = 0 keeps N0
            sphere.append(shift + (v0 if v0 < pv1 else pv1))
            if build:
                nxt.append((n0, pn1, 0, 1))
        if v0 != v1:
            low = v0 if v0 < v1 else v1
            sphere += [shift + low] * units
            if build:
                nxt.append(((None, None, low), pn1, 0, units))
            continue
        x, y = x0, y0
        for _ in range(units):
            x -= x1
            y -= y1
            low = pval(p, x, y)
            if low is None:
                low = _NO_VAL
            sphere.append(shift + (low if low < pv1 else pv1))
            if build:
                nxt.append(((x, y, low), pn1, 0, 1))
    return sphere, nxt


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
