import dataclasses
import random

import pytest

import oracles
from cyclelift import padic
from cyclelift.errors import DegenerateVectorError
from cyclelift.padic import LocalContext, VectorC, epsilon, herm, ord_qform, qform

CTX = LocalContext(p=5, delta_sq=-2)
CTX3 = LocalContext(p=3, delta_sq=-10)


def random_vector(ctx, rng, span=4):
    while True:
        a0 = (rng.randrange(-ctx.p**span, ctx.p**span), rng.randrange(ctx.p**span))
        a1 = (rng.randrange(ctx.p**span), rng.randrange(-ctx.p**span, ctx.p**span))
        if any(x % ctx.p for x in a0 + a1):
            return ctx.vector_from_ints(a0, a1, rng.randrange(-2, 3))


class TestContext:
    def test_rejects_split_prime(self):
        with pytest.raises(ValueError):
            LocalContext(p=3, delta_sq=-2)  # -2 is a square mod 3

    def test_rejects_even_prime_and_low_precision(self):
        with pytest.raises(ValueError):
            LocalContext(p=2, delta_sq=-2)
        # Only the truncated oracle ring has a working precision to refuse.
        with pytest.raises(ValueError):
            oracles.TruncatedContext(p=5, delta_sq=-2, precision=4)

    def test_required_precision_policy(self):
        # There is no working precision: a context is p and Delta alone.
        assert [f.name for f in dataclasses.fields(LocalContext)] == ["p", "delta_sq"]
        for name in ("required_precision", "DEFAULT_MIN_PRECISION"):
            assert not hasattr(padic, name)


class TestElem:
    def test_arithmetic_and_conjugation(self):
        d = CTX.delta()
        assert d.mul(d) == CTX.elem(-2)
        assert d.conj() == d.neg()
        e = CTX.elem(3, 4)
        assert e.mul(e.conj()) == CTX.elem(3 * 3 - (-2) * 4 * 4)
        assert e.add(e).sub(e.mul_int(2)) == CTX.elem(0)

    def test_valuation(self):
        assert CTX.elem(25, 50).valuation() == 2
        assert CTX.elem(25, 1).valuation() == 0
        assert CTX.elem(-125, 0).valuation() == 3
        assert CTX.elem(0, 0).valuation() is None  # the valuation of zero is infinite

    def test_unit_inverse(self):
        e = CTX.elem(3, 4)
        for k in (0, 1, 20):
            inv = e.unit_inverse(k)
            prod = e.mul(inv)
            assert (prod.x - 1) % 5**k == 0 and prod.y % 5**k == 0
            assert 0 <= inv.x < 5**k and 0 <= inv.y < 5**k
        with pytest.raises(ValueError):
            CTX.elem(5, 10).unit_inverse(3)

    def test_divide_p_power_tracks_precision(self):
        # Division is exact: no digit is lost, and the sign is kept.
        assert CTX.elem(50, 25).divide_p_power(2) == CTX.elem(2, 1)
        assert CTX.elem(-50, 25).divide_p_power(2) == CTX.elem(-2, 1)
        assert CTX.elem(7, 3).divide_p_power(0) == CTX.elem(7, 3)
        with pytest.raises(ValueError):
            CTX.elem(5, 1).divide_p_power(1)

    def test_vector_normalization_guards_starved_zero(self):
        # A zero coordinate is exactly zero, so normalization divides the
        # other one out; the truncated oracle, which knows the zero to 3
        # digits only, cannot certify that and refuses.
        b = VectorC(CTX, CTX.elem(0, 0), CTX.elem(5**6, 0))
        assert (b.a0, b.a1, b.denom_exp) == (CTX.elem(0), CTX.elem(1), -6)
        t = oracles.TruncatedContext(p=5, delta_sq=-2, precision=20)
        with pytest.raises(oracles.TruncationExhausted):
            t.vector(t.elem(0, 0, prec=3), t.elem(5**6, 0))


class TestHerm:
    def test_gram_convention(self):
        v0 = CTX.vector_from_ints((1, 0), (0, 0))
        v1 = CTX.vector_from_ints((0, 0), (1, 0))
        val, exp = herm(v0, v1)
        assert (val, exp) == (CTX.delta(), 0)
        val, _ = herm(v1, v0)
        assert val == CTX.delta().neg()
        val, _ = herm(v0, v0)
        assert val == CTX.elem(0)

    def test_norm_of_delta_one(self):
        b = CTX.vector_from_ints((0, 1), (1, 0))
        val, exp = herm(b, b)
        assert exp == 0
        assert val == CTX.elem(-4)  # 2 * Delta

    def test_hermitian_symmetry_random(self):
        rng = random.Random(11)
        for ctx in (CTX, CTX3):
            for _ in range(500):
                u = random_vector(ctx, rng)
                w = random_vector(ctx, rng)
                vu, eu = herm(u, w)
                vw, ew = herm(w, u)
                assert eu == ew
                assert vw == vu.conj()


class TestQForm:
    def test_isotropic_basis_vector(self):
        b = CTX.vector_from_ints((1, 0), (0, 0))
        assert qform(b) is None
        with pytest.raises(DegenerateVectorError):
            ord_qform(b)

    def test_unit_norm_example(self):
        b = CTX.vector_from_ints((0, 1), (1, 0))
        assert qform(b) == 0
        assert ord_qform(b) == 0

    def test_scaling_shifts_by_two(self):
        b = CTX.vector_from_ints((0, 1), (1, 0))
        assert qform(b.scale_p_power(1)) == 2
        assert qform(b.scale_p_power(-1)) == -2
        b2 = CTX.vector_from_ints((0, 5), (5, 0))
        assert qform(b2) == 2

    def test_values_are_rational_always(self):
        # h(b, b) is rational, and qform is its valuation (None for zero).
        def agrees_with_herm(b):
            val, exp = herm(b, b)
            assert val.y == 0
            v = val.valuation()
            return qform(b) == (None if v is None else v + exp)

        rng = random.Random(23)
        for ctx in (CTX, CTX3):
            for _ in range(300):
                b = random_vector(ctx, rng)
                k = rng.randrange(1, 4)
                for scaled in (b, b.scale_p_power(k), b.scale_p_power(-k)):
                    assert agrees_with_herm(scaled)
            # Isotropic vectors: rational coordinates, and a1 a rational
            # multiple of a0 (proportional (x, y) pairs).
            for _ in range(100):
                x, y = rng.randrange(1, 500), rng.randrange(-500, 500)
                m, n = rng.randrange(-50, 50) or 1, rng.randrange(-50, 50)
                e = rng.randrange(-2, 3)
                for b in (
                    ctx.vector_from_ints((x, 0), (y, 0), e),
                    ctx.vector_from_ints((m * x, m * y), (n * x, n * y), e),
                ):
                    assert qform(b) is None
                    assert agrees_with_herm(b)


class TestEpsilon:
    def test_fixes_rational_flips_delta(self):
        v0 = CTX.vector_from_ints((1, 0), (0, 0))
        assert epsilon(v0).a0 == v0.a0 and epsilon(v0).a1 == v0.a1
        b = CTX.vector_from_ints((0, 1), (1, 0))
        eb = epsilon(b)
        assert eb.a0 == CTX.elem(0, -1)
        assert eb.a1 == CTX.elem(1)

    def test_negates_qform(self):
        b = CTX.vector_from_ints((0, 1), (1, 0))
        v1, e1 = herm(b, b)
        v2, e2 = herm(epsilon(b), epsilon(b))
        assert e1 == e2 and v2 == v1.neg()
        assert v2 == CTX.elem(4)

    def test_involution_and_semilinearity(self):
        rng = random.Random(31)
        for _ in range(100):
            b = random_vector(CTX, rng)
            bb = epsilon(epsilon(b))
            assert bb.a0 == b.a0 and bb.a1 == b.a1 and bb.denom_exp == b.denom_exp
            a = CTX.elem(5 * rng.randrange(20) + rng.randrange(1, 5), rng.randrange(100))
            scaled = epsilon(VectorC(CTX, b.a0.mul(a), b.a1.mul(a), b.denom_exp))
            direct = epsilon(b)
            ac = a.conj()
            assert (scaled.a0, scaled.a1) == (direct.a0.mul(ac), direct.a1.mul(ac))
            q1 = qform(b)
            q2 = qform(epsilon(b))
            assert q1 == q2
