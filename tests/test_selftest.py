import pytest

from ffkakeya import selftest
from ffkakeya.mpoly import binom_multi, compositions


def test_vandermonde_checks_every_identity():
    # 714 multi-indices alpha of arity <= 4 and |alpha| <= 8, times w = 0..8
    cert = selftest.vandermonde_check()
    assert cert.verdict == "pass"
    assert cert.steps == [{"identities_checked": 6426}]


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_box_sums_are_the_full_composition_sums(arity):
    # the box beta <= alpha against every composition of each |beta| = w
    for d in range(9):
        for alpha in compositions(arity, d):
            full = [sum(binom_multi(alpha, beta) for beta in compositions(arity, w))
                    for w in range(d + 1)]
            assert selftest._box_sums(alpha) == full


def test_hasse_oracle_names_the_first_differing_order(monkeypatch):
    # a table that loses its last order, degree-then-lex, differs there only
    dropped, full_table = [], selftest.hasse_table

    def lossy(P):
        table = full_table(P)
        if table:
            dropped.append(max(table, key=lambda beta: (sum(beta), beta)))
            del table[dropped[-1]]
        return table

    monkeypatch.setattr(selftest, "hasse_table", lossy)
    cert = selftest.hasse_oracle_check(seed=3)
    assert cert.verdict == "fail"
    assert cert.witness["beta"] == list(dropped[-1])


def test_hasse_oracle_fails_on_an_order_above_the_degree(monkeypatch):
    # an order beyond every |beta| <= deg P is still compared and named: the
    # witness search reads the orders of both tables, so it returns `fail`
    # rather than raising StopIteration
    full_table = selftest.hasse_table

    def padded(P):
        table = full_table(P)
        table[(99,) * P.arity] = P
        return table

    monkeypatch.setattr(selftest, "hasse_table", padded)
    cert = selftest.hasse_oracle_check(seed=3)
    assert cert.verdict == "fail"
    assert cert.witness["beta"] == [99] * len(cert.witness["terms"][0][0])
