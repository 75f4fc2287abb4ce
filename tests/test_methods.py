import json
from fractions import Fraction as F

import pytest

from scbcert import methods, poly, recursion
from scbcert.methods import Method, MethodError, catalog, generating_polys, n0, validate


def char_poly(m, gamma):
    """The integer characteristic polynomial chi_gamma, roots at zero stripped."""
    return recursion._characteristic(m, gamma)[0]

# classical coefficient tables, frozen as an oracle independent of the
# closed-form generators used by the catalog
BDF_TABLE = {
    1: ((F(1),), (F(1), F(0))),
    2: ((F(4, 3), F(-1, 3)), (F(2, 3), F(0), F(0))),
    3: ((F(18, 11), F(-9, 11), F(2, 11)), (F(6, 11), F(0), F(0), F(0))),
    4: (
        (F(48, 25), F(-36, 25), F(16, 25), F(-3, 25)),
        (F(12, 25), F(0), F(0), F(0), F(0)),
    ),
    5: (
        (F(300, 137), F(-300, 137), F(200, 137), F(-75, 137), F(12, 137)),
        (F(60, 137), F(0), F(0), F(0), F(0), F(0)),
    ),
    6: (
        (F(120, 49), F(-150, 49), F(400, 147), F(-75, 49), F(24, 49), F(-10, 147)),
        (F(20, 49), F(0), F(0), F(0), F(0), F(0), F(0)),
    ),
}

AB_TABLE = {
    1: ((F(1),), (F(0), F(1))),
    2: ((F(1), F(0)), (F(0), F(3, 2), F(-1, 2))),
    3: ((F(1), F(0), F(0)), (F(0), F(23, 12), F(-4, 3), F(5, 12))),
    4: (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(55, 24), F(-59, 24), F(37, 24), F(-3, 8)),
    ),
}


class TestCatalog:
    @pytest.mark.parametrize("k", sorted(BDF_TABLE))
    def test_bdf_against_table(self, k):
        m = catalog("bdf%d" % k)
        assert m.a == BDF_TABLE[k][0]
        assert m.b == BDF_TABLE[k][1]

    @pytest.mark.parametrize("k", sorted(AB_TABLE))
    def test_ab_against_table(self, k):
        m = catalog("ab%d" % k)
        assert m.a == AB_TABLE[k][0]
        assert m.b == AB_TABLE[k][1]

    def test_ebdf3_recovery(self):
        m = catalog("ebdf3")
        assert m.k == 3
        assert m.a == BDF_TABLE[3][0]
        assert m.b[0] == 0
        taus = recursion.tau_prefix(m, 3)
        assert taus[1:] == [F(18, 11), F(126, 121), F(1212, 1331)]

    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_ebdf_matches_extrapolation_construction(self, k):
        # independent construction: explicit derivative weights are the
        # implicit one-leg weight times binomial extrapolation coefficients
        m = catalog("ebdf%d" % k)
        beta0 = BDF_TABLE[k][1][0]
        expected = [F(0)] + [
            beta0 * (-1) ** (j + 1) * _binom(k, j) for j in range(1, k + 1)
        ]
        assert list(m.b) == expected

    def test_unknown_name(self):
        with pytest.raises(MethodError) as err:
            catalog("bdf7")
        assert "available" in str(err.value)

    def test_names(self):
        names = methods.catalog_names()
        assert len(names) == 13
        assert "bdf6" in names and "ab4" in names and "ebdf5" in names


def _binom(n, r):
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out


class TestValidate:
    @pytest.mark.parametrize("name", ["bdf6", "ab4", "ebdf5", "bdf1"])
    def test_catalog_methods_pass(self, name):
        assert validate(catalog(name)).ok

    def test_zero_stability_failure(self):
        m = Method(k=2, a=(F(2), F(-1)), b=(F(0), F(1), F(0)), name="bad")
        report = validate(m)
        failed = {c.name for c in report.failures()}
        assert "zero_stability" in failed

    def test_negative_b0(self):
        m = Method(k=1, a=(F(1),), b=(F(-1), F(2)), name="bad")
        failed = {c.name for c in validate(m).failures()}
        assert "nonnegative_b0" in failed

    def test_inconsistent(self):
        m = Method(k=1, a=(F(1, 2),), b=(F(0), F(1)), name="bad")
        failed = {c.name for c in validate(m).failures()}
        assert "consistency" in failed

    def test_irreducibility_failure(self):
        # rho = z^2 - 1, sigma = z^2 - z: share the root 1
        m = Method(k=2, a=(F(0), F(1)), b=(F(1), F(-1), F(0)), name="bad")
        failed = {c.name for c in validate(m).failures()}
        assert "irreducibility" in failed


class TestGeneratingPolys:
    def test_bdf2(self):
        # L = 3: 3 rho = 3z^2 - 4z + 1, 3 sigma = 2z^2
        gp = generating_polys(catalog("bdf2"))
        assert gp.rho == (3, -4, 1)
        assert gp.sigma == (2, 0, 0)

    def test_ab1(self):
        gp = generating_polys(catalog("ab1"))
        assert gp.rho == (1, -1)
        assert gp.sigma == (1,)

    def test_ebdf3(self):
        gp = generating_polys(catalog("ebdf3"))
        assert gp.rho == (11, -18, 9, -2)


class TestCharPoly:
    def test_bdf2_display(self):
        # proportional to (2g+3) z^2 - 4 z + 1
        g = F(7, 13)
        cp = char_poly(catalog("bdf2"), g)
        assert all(type(c) is int for c in cp)
        lam = cp[0] / (2 * g + 3)
        assert lam > 0
        assert [c / lam for c in cp] == [2 * g + 3, F(-4), F(1)]

    def test_bdf5_display(self):
        g = F(11, 7)
        cp = char_poly(catalog("bdf5"), g)
        lam = cp[0] / (60 * g + 137)
        assert [c / lam for c in cp] == [60 * g + 137, -300, 300, -200, 75, -12]

    def test_gamma_zero_proportional_to_rho(self):
        import random

        rng = random.Random(5)
        for name in ("bdf3", "ab3", "ebdf4"):
            m = catalog(name)
            cp = char_poly(m, F(0))
            rho = list(generating_polys(m).rho)
            # ab3's rho = z^3 - z^2 has roots at zero, which chi leaves out
            cp = cp + [0] * (len(rho) - len(cp))
            for _ in range(100):
                z = F(rng.randint(-50, 50), rng.randint(1, 20))
                assert poly.eval_at(cp, z) * rho[0] == poly.eval_at(rho, z) * cp[0]

    def test_negative_gamma_rejected(self):
        with pytest.raises(MethodError):
            char_poly(catalog("bdf2"), F(-1))


class TestN0:
    def test_examples(self):
        assert n0(catalog("ebdf3")) == 1
        assert n0(catalog("ebdf5")) == 1
        assert n0(catalog("ab1")) == 1

    def test_all_catalog(self):
        for name in methods.catalog_names():
            assert n0(catalog(name)) == 1


class TestCatalogLookup:
    def test_second_lookup_skips_validation(self, monkeypatch):
        first = catalog("bdf4")
        calls = []

        def counting(m):
            calls.append(m.name)
            return validate(m)

        monkeypatch.setattr(methods, "validate", counting)
        assert catalog("bdf4") is first
        assert catalog(" BDF4 ") is first
        assert calls == []


class TestCatalogInvariants:
    def test_consistency_sums(self):
        for name in methods.catalog_names():
            m = catalog(name)
            assert sum(m.a) == 1
            assert sum((j + 1) * a for j, a in enumerate(m.a)) == sum(m.b)

    def test_ebdf_tau_values_exact(self):
        # the catalog derives the ebdf weights from the BDF's; the published
        # starting values of tau check them
        from scbcert.published import EBDF_TAU

        for k, taus in EBDF_TAU.items():
            m = catalog("ebdf%d" % k)
            got = recursion.tau_prefix(m, k)[1:]
            assert got == list(taus)

    def test_bdf_mu_starting_values_symbolic(self):
        """Displayed closed forms of the first damped-sequence values."""
        import random

        rng = random.Random(11)
        displayed = {
            "bdf1": [lambda g: 1 / (g + 1)],
            "bdf2": [
                lambda g: 2 / (2 * g + 3),
                lambda g: 8 / (2 * g + 3) ** 2,
            ],
            "bdf3": [
                lambda g: 6 / (6 * g + 11),
                lambda g: 108 / (6 * g + 11) ** 2,
                lambda g: 54 * (-6 * g + 25) / (6 * g + 11) ** 3,
            ],
            "bdf4": [
                lambda g: 12 / (12 * g + 25),
                lambda g: 576 / (12 * g + 25) ** 2,
                lambda g: 1296 * (-4 * g + 13) / (12 * g + 25) ** 3,
                lambda g: 192 * (144 * g**2 - 1992 * g + 2137) / (12 * g + 25) ** 4,
            ],
            "bdf5": [
                lambda g: 60 / (60 * g + 137),
                lambda g: 18000 / (60 * g + 137) ** 2,
                lambda g: 18000 * (-60 * g + 163) / (60 * g + 137) ** 3,
                lambda g: 12000 * (3600 * g**2 - 37560 * g + 30469) / (60 * g + 137) ** 4,
                lambda g: 4500
                * (-216000 * g**3 + 8600400 * g**2 - 22146420 * g + 10021847)
                / (60 * g + 137) ** 5,
            ],
            "bdf6": [
                lambda g: 20 / (20 * g + 49),
                lambda g: 2400 / (20 * g + 49) ** 2,
                lambda g: 3000 * (-20 * g + 47) / (20 * g + 49) ** 3,
                lambda g: 8000 * (400 * g**2 - 3440 * g + 2131) / (3 * (20 * g + 49) ** 4),
                lambda g: 500
                * (-24000 * g**3 + 695600 * g**2 - 1343380 * g + 474833)
                / (20 * g + 49) ** 5,
                lambda g: 160
                * (480000 * g**4 - 53296000 * g**3 + 283987200 * g**2 - 212499240 * g + 84071653)
                / (20 * g + 49) ** 6,
            ],
        }
        for name, forms in displayed.items():
            m = catalog(name)
            for _ in range(50):
                g = F(rng.randint(1, 400), rng.randint(1, 100))
                mus = recursion.mu_prefix(m, g, m.k - 1)
                for n, form in enumerate(forms):
                    assert mus[n] == form(g), (name, n, g)

    def test_ab_mu_starting_values(self):
        g = F(3, 7)
        assert recursion.mu_prefix(catalog("ab2"), g, 2)[1:] == [
            F(3, 2),
            -9 * g / 4 + 1,
        ]
        assert recursion.mu_prefix(catalog("ab3"), g, 3)[1:] == [
            F(23, 12),
            -529 * g / 144 + F(7, 12),
            12167 * g**2 / 1728 - 161 * g / 72 + 1,
        ]
        m4 = recursion.mu_prefix(catalog("ab4"), g, 2)
        assert m4[1] == F(55, 24)
        assert m4[2] == -3025 * g / 576 - F(1, 6)


class TestCustomMethods:
    def test_roundtrip(self, tmp_path):
        m = catalog("bdf2")
        data = {"k": 2, "a": ["4/3", "-1/3"], "b": ["2/3", "0", "0"], "name": "bdf2"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        loaded = methods.load_method_file(str(path))
        assert loaded.a == m.a and loaded.b == m.b and loaded.k == m.k

    def test_resolve_rejects_invalid(self, tmp_path):
        bad = {"k": 2, "a": ["2", "-1"], "b": ["0", "1", "0"], "name": "bad"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(MethodError):
            methods.resolve_method(str(path))

    def test_structural_errors(self):
        with pytest.raises(MethodError):
            Method(k=2, a=(F(1),), b=(F(0), F(1), F(0)))
        with pytest.raises(MethodError):
            Method(k=0, a=(), b=(F(0),))
