"""Algebra of the bicomplex and hyperbolic number kernels."""

import math
import random

import pytest

import bhm.core as core
from bhm.core import (
    Hyperbolic,
    I1,
    I2,
    IDEM_E,
    IDEM_F,
    J,
    ZeroDivisorError,
    embed_complex,
    embed_complex_i1,
    embed_hyperbolic,
)

# one value, so the test ids keep naming the kernel ("[python]")
@pytest.fixture(params=[core.Bicomplex], ids=[core.BACKEND])
def B(request):
    return request.param


def rand(rng, B, scale=2.0):
    return B(complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)),
             complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)))


def assert_close(p, q, tol=1e-12):
    scale = max(abs(p), abs(q), 1.0)
    assert abs(p - q) <= tol * scale, f"{p!r} != {q!r}"


class TestUnits:
    def test_unit_table(self, B):
        i1, i2 = B(1j, 0), B(0, 1)
        j = i1 * i2
        assert (i1 * i1).to_reals() == [-1, 0, 0, 0]
        assert (i2 * i2).to_reals() == [-1, 0, 0, 0]
        assert j.to_reals() == [0, 0, 0, 1]
        assert (i2 * i1).to_reals() == j.to_reals()
        assert (j * j).to_reals() == [1, 0, 0, 0]

    def test_zero_divisor_product(self, B):
        one = B(1, 0)
        j = B(0, 1j)
        assert ((one + j) * (one - j)).to_reals() == [0, 0, 0, 0]
        # (1 + i1*i2)(1 - i1*i2) restates the same product
        p = one + B(1j, 0) * B(0, 1)
        q = one - B(1j, 0) * B(0, 1)
        assert (p * q).to_reals() == [0, 0, 0, 0]

    def test_basis_serialization(self, B):
        q = B.from_reals([1.5, -2.0, 0.25, 3.0])
        assert q.to_reals() == [1.5, -2.0, 0.25, 3.0]
        assert q.z1 == 1.5 - 2j and q.z2 == 0.25 + 3j


class TestRingAxioms:
    def test_axioms_random(self, B):
        rng = random.Random(11)
        for _ in range(500):
            p, q, r = (rand(rng, B) for _ in range(3))
            assert_close(p * q, q * p)
            assert_close((p * q) * r, p * (q * r))
            assert_close(p * (q + r), p * q + p * r)

    def test_cn_multiplicative(self, B):
        rng = random.Random(12)
        for _ in range(500):
            p, q = rand(rng, B), rand(rng, B)
            lhs = (p * q).cn()
            rhs = p.cn() * q.cn()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_q_times_conj_is_cn(self, B):
        # exact for rational inputs
        q = B(complex(3, -2), complex(0.5, 4))
        prod = q * q.conj()
        assert prod.z1 == q.cn() and prod.z2 == 0

    def test_real_norm_triangle(self, B):
        rng = random.Random(13)
        for _ in range(300):
            p, q = rand(rng, B), rand(rng, B)
            assert abs(p + q) <= abs(p) + abs(q) + 1e-12


class TestConjugate:
    def test_examples(self, B):
        i2 = B(0, 1)
        assert i2.conj().to_reals() == [0, 0, -1, 0]
        assert B(7.5, 0).conj().to_reals() == [7.5, 0, 0, 0]
        # star of 1 + j: components (1, i1) -> (1, -i1) = 1 - j
        assert (B(1, 0) + B(0, 1j)).conj().to_reals() == [1, 0, 0, -1]


class TestComplexNorm:
    def test_examples(self, B):
        assert B(1, 1j).cn() == 0          # 1 + j
        assert B(0, 1).cn() == 1           # i2
        assert B(3, 4).cn() == 25          # 3 + 4 i2


class TestInverse:
    def test_examples(self, B):
        assert_close(B(0, 1).inverse(), B(0, -1))
        assert_close(B(2, 0).inverse(), B(0.5, 0))
        with pytest.raises(ZeroDivisorError):
            B(1, 1j).inverse()  # 1 + j

    def test_inverse_multiplies_to_one(self, B):
        rng = random.Random(14)
        count = 0
        while count < 300:
            q = rand(rng, B)
            if abs(q.cn()) < 1e-3:
                continue
            count += 1
            assert_close(q * q.inverse(), B(1, 0), tol=1e-11)

    def test_zero_divisor_set_detected(self, B):
        rng = random.Random(15)
        for _ in range(300):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            for sign in (1, -1):
                q = B(z, sign * 1j * z)  # z*(1 + sign*j)
                assert not q.is_unit()
                with pytest.raises(ZeroDivisorError):
                    q.inverse()

    def test_scale_invariant_threshold(self, B):
        q = B(1e3, 1e3 * 1j + 1e-18)  # relatively tiny CN at large scale
        assert not q.is_unit()


class TestRingleb:
    def oracle_recompose(self, B, e, f):
        # direct multiplication against the idempotents (1 -+ j)/2
        a = B(0.5, -0.5j)
        b = B(0.5, 0.5j)
        return B(e, 0) * a + B(f, 0) * b

    def test_examples(self, B):
        assert B(0, 1).ringleb() == (1j, -1j)     # i2
        assert B(1, 0).ringleb() == (1, 1)
        assert B(0, 1j).ringleb() == (-1, 1)      # j

    def test_recompose_examples(self, B):
        assert B.from_ringleb(1, 1).to_reals() == [1, 0, 0, 0]
        assert B.from_ringleb(0, 1).to_reals() == [0.5, 0, 0, 0.5]   # (1+j)/2
        assert B.from_ringleb(1j, -1j).to_reals() == [0, 0, 1, 0]    # i2

    def test_recompose_matches_multiplication_oracle(self, B):
        rng = random.Random(16)
        for _ in range(200):
            e = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            f = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert_close(B.from_ringleb(e, f), self.oracle_recompose(B, e, f))

    def test_roundtrip_and_multiplicativity(self, B):
        rng = random.Random(17)
        for _ in range(300):
            p, q = rand(rng, B), rand(rng, B)
            e, f = p.ringleb()
            assert_close(B.from_ringleb(e, f), p)
            ep, fp = p.ringleb()
            eq, fq = q.ringleb()
            er, fr = (p * q).ringleb()
            assert abs(er - ep * eq) <= 1e-12 * max(1.0, abs(er))
            assert abs(fr - fp * fq) <= 1e-12 * max(1.0, abs(fr))

    def test_unit_iff_both_parts_nonzero(self, B):
        rng = random.Random(18)
        for _ in range(200):
            q = rand(rng, B)
            e, f = q.ringleb()
            assert q.is_unit() == (abs(e * f) > 1e-12 * max(1.0, q.norm2()))


class TestIdempotents:
    def test_idempotent_relations(self):
        assert (IDEM_E * IDEM_E).to_reals() == IDEM_E.to_reals()
        assert (IDEM_F * IDEM_F).to_reals() == IDEM_F.to_reals()
        assert (IDEM_E * IDEM_F).to_reals() == [0, 0, 0, 0]
        assert (IDEM_E + IDEM_F).to_reals() == [1, 0, 0, 0]
        assert (IDEM_E - IDEM_F).to_reals() == (-J).to_reals()


class TestEmbeddings:
    def test_embed_complex(self):
        assert embed_complex(1j).to_reals() == I2.to_reals()
        assert embed_complex(2.5 - 3j).to_reals() == [2.5, 0, -3, 0]

    def test_embed_complex_i1(self):
        assert embed_complex_i1(1j).to_reals() == I1.to_reals()

    def test_embed_hyperbolic(self):
        assert embed_hyperbolic(Hyperbolic(0, 1)).to_reals() == J.to_reals()
        assert embed_hyperbolic(Hyperbolic(2, -3)).to_reals() == [2, 0, 0, -3]

    def test_homomorphisms(self, rng):
        for _ in range(200):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for emb in (embed_complex, embed_complex_i1):
                assert_close(emb(z * w), emb(z) * emb(w))
                assert_close(emb(z + w), emb(z) + emb(w))
        for _ in range(200):
            h = Hyperbolic(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k = Hyperbolic(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert_close(embed_hyperbolic(h * k),
                         embed_hyperbolic(h) * embed_hyperbolic(k))
            assert_close(embed_hyperbolic(h + k),
                         embed_hyperbolic(h) + embed_hyperbolic(k))


class TestHyperbolic:
    def test_multiplication_exact(self, rng):
        for _ in range(200):
            x1, x2, y1, y2 = (rng.uniform(-5, 5) for _ in range(4))
            p, q = Hyperbolic(x1, x2), Hyperbolic(y1, y2)
            prod = p * q
            assert prod.x == x1 * y1 + x2 * y2
            assert prod.y == x1 * y2 + x2 * y1

    def test_j_square(self):
        j = Hyperbolic(0, 1)
        assert (j * j) == Hyperbolic(1, 0)

    def test_zero_divisors(self):
        p = Hyperbolic(1, 1) * Hyperbolic(1, -1)
        assert p == Hyperbolic(0, 0)

    def test_serialization(self):
        h = Hyperbolic(1.5, -2.0)
        assert Hyperbolic.from_reals(h.to_reals()) == h


class TestModuleFunctions:
    def test_spec_surface(self, rng):
        # one method per operation, exact on these dyadic values
        q = core.Bicomplex(1 + 2j, -0.5 + 1j)
        assert q.conj() == core.Bicomplex(1 + 2j, 0.5 - 1j)
        assert q.cn() == (1 + 2j) ** 2 + (-0.5 + 1j) ** 2
        assert abs(q) == math.sqrt(5 + 1.25)
        assert q.ringleb() == (1.5j, 2 + 2.5j)
        assert core.Bicomplex.from_ringleb(*q.ringleb()) == q

    def test_mixed_scalar_arithmetic_is_i1_plane(self):
        q = core.Bicomplex(0, 1)
        assert (1j * q).to_reals() == (core.I1 * q).to_reals()
        assert (2 * q).to_reals() == [0, 0, 2, 0]

    def test_pow(self):
        q = core.Bicomplex(1 + 1j, 0.5)
        assert abs((q ** 4) - q * q * q * q) < 1e-12
        assert abs((q ** 0) - 1) == 0
        assert abs((q ** -1) * q - 1) < 1e-12

    def test_real_norm_value(self):
        q = core.Bicomplex(3 + 4j, 0)
        assert math.isclose(abs(q), 5.0)
