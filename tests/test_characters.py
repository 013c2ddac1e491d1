import math

import lemmas
import pytest


class TestKronecker:
    def test_mod4_character(self):
        vals = [lemmas.kronecker(-4, n) for n in range(8)]
        assert vals == [0, 1, 0, -1, 0, 1, 0, -1]

    def test_complete_multiplicativity(self):
        for d in (-4, -3, 5, 8, 12):
            for m in range(1, 30):
                for n in range(1, 30):
                    assert (lemmas.kronecker(d, m * n) ==
                            lemmas.kronecker(d, m) *
                            lemmas.kronecker(d, n))

    def test_euler_criterion(self):
        # (d|q) for odd prime q is the Legendre symbol
        for d in (-4, -3, 5, 8, 12, 7):
            for q in (3, 5, 7, 11, 13, 17):
                if d % q == 0:
                    continue
                euler = pow(d % q, (q - 1) // 2, q)
                expect = 1 if euler == 1 else -1
                assert lemmas.kronecker(d, q) == expect


class TestDirichletGroup:
    @pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 24])
    def test_group_size_is_phi(self, D):
        phi = sum(1 for r in range(1, max(D, 2)) if math.gcd(r, D) == 1) \
            if D > 1 else 1
        assert len(lemmas.dirichlet_characters(D)) == phi

    @pytest.mark.parametrize("D", [3, 4, 5, 8, 12, 15])
    def test_multiplicativity(self, D):
        units = [u for u in range(D) if math.gcd(u, D) == 1]
        for ch in lemmas.dirichlet_characters(D):
            for u in units:
                for v in units:
                    assert ch(u * v) == pytest.approx(ch(u) * ch(v),
                                                      abs=1e-10)

    @pytest.mark.parametrize("D", [3, 4, 5, 8, 12])
    def test_orthogonality(self, D):
        chars = lemmas.dirichlet_characters(D)
        phi = len(chars)
        for ch in chars:
            total = sum(ch(r) for r in range(D))
            if ch.is_principal:
                assert total == pytest.approx(phi, abs=1e-9)
            else:
                assert abs(total) < 1e-9

    def test_principal(self):
        ch = lemmas.principal_character(6)
        assert ch(1) == 1 and ch(5) == 1
        assert ch(2) == 0 and ch(3) == 0
        assert ch.is_principal

    def test_kronecker_character_matches_symbol(self):
        ch = lemmas.kronecker_character(-4)
        for n in range(20):
            assert ch(n) == lemmas.kronecker(-4, n)

    def test_trivial_on_subgroup(self):
        # characters mod 4 trivial on {1}: both of them
        sel = lemmas.characters_trivial_on(4, [1])
        assert len(sel) == 2
        # trivial on all units: only the principal one
        sel = lemmas.characters_trivial_on(8, [1, 3, 5, 7])
        assert len(sel) == 1 and sel[0].is_principal

    def test_value_table_shape(self):
        ch = lemmas.kronecker_character(-4)
        t = ch.value_table()
        assert t.shape == (4,)
        assert t[3] == -1
