import math
from decimal import Decimal, getcontext
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from primeseq import (
    binary_primes_sequence,
    brute_force_attack,
    d_sequence,
    estimate_search_space,
    exact_hypothesis_count,
    harden,
    search_space_log10_consistent,
    search_space_log10_paper,
)
from primeseq.adversary import ATTACK_MAX_LENGTH
from conftest import (
    bits_of,
    oracle_attack_moduli,
    oracle_bps_bits,
    oracle_brute_force,
    oracle_d_bits,
    oracle_primes_upto,
    seq_of,
)


# --- closed-form search-space figures ---------------------------------------

def test_paper_formula_examples():
    assert search_space_log10_paper(10) == pytest.approx(5.6797, abs=1e-3)
    assert search_space_log10_paper(10**6) == pytest.approx(434305.04, abs=0.5)
    n = 3
    expected = math.log10(9 / (2 * math.log(3))) + (3 / math.log(3)) * math.log10(3)
    assert search_space_log10_paper(3) == pytest.approx(expected)
    with pytest.raises(ValueError):
        search_space_log10_paper(2)


def test_consistent_formula_examples():
    assert search_space_log10_consistent(10) == pytest.approx(1.8503, abs=1e-3)
    assert search_space_log10_consistent(10**6) == pytest.approx(47.1455, abs=1e-3)
    with pytest.raises(ValueError):
        search_space_log10_consistent(2)


def test_paper_formula_dominates():
    for n in (10, 100, 1000, 10**4, 10**5, 10**6):
        assert search_space_log10_paper(n) > search_space_log10_consistent(n)


def test_formulas_strictly_increasing():
    points = [10, 20, 50, 100, 500, 1000, 10**4, 10**5, 10**6]
    for lo, hi in zip(points, points[1:]):
        assert search_space_log10_paper(hi) > search_space_log10_paper(lo)
        assert search_space_log10_consistent(hi) > search_space_log10_consistent(lo)


def test_formulas_refuse_n_whose_square_overflows_a_double():
    for formula in (search_space_log10_paper, search_space_log10_consistent):
        assert math.isfinite(formula(2**511))
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            formula(2**512 - 1)


def test_paper_formula_against_high_precision_evaluation():
    # n^(n/ln n) evaluated literally at 60 digits; agreement must reach six
    # significant digits of the linearized value, i.e. |delta log10| <= 2.2e-7
    getcontext().prec = 60
    for n in range(3, 31):
        d = Decimal(n)
        ln_n = d.ln()
        value = d * d / (2 * ln_n) * ((d / ln_n) * ln_n).exp()
        expected_log10 = float(value.log10())
        assert abs(search_space_log10_paper(n) - expected_log10) <= 2.2e-7, n


# --- exact hypothesis counting -----------------------------------------------

def enumerate_count(n, l_max):
    primes = oracle_primes_upto(n)
    total = 0
    for _q in primes:
        for l in range(1, l_max + 1):
            total += sum(1 for _ in combinations(range(1, n), l))
    return total


@pytest.mark.parametrize("n, l_max, expected", [(10, 2, 180), (10, 1, 36), (10, 9, 2044)])
def test_exact_hypothesis_count_frozen(n, l_max, expected):
    assert exact_hypothesis_count(n, l_max) == expected
    assert enumerate_count(n, l_max) == expected


@pytest.mark.parametrize("n, l_max", [(12, 3), (7, 2), (24, 3), (15, 5)])
def test_exact_hypothesis_count_matches_enumeration(n, l_max):
    assert exact_hypothesis_count(n, l_max) == enumerate_count(n, l_max)


def test_exact_hypothesis_count_bounds():
    with pytest.raises(ValueError):
        exact_hypothesis_count(2, 1)
    with pytest.raises(ValueError):
        exact_hypothesis_count(10, 0)
    with pytest.raises(ValueError):
        exact_hypothesis_count(10, 10)


def test_exact_hypothesis_count_refuses_before_summing(monkeypatch):
    # the (n, l_max) domain, then the sieve's cap on n, are checked before any
    # binomial is summed, so a refused n costs no C(n-1, l)
    calls = []
    real = math.comb

    def recording(n, k):
        calls.append((n, k))
        return real(n, k)

    monkeypatch.setattr(math, "comb", recording)
    with pytest.raises(ValueError, match=r"^l_max must be in 1\.\.999999999, got 0$"):
        exact_hypothesis_count(10**9, 0)
    with pytest.raises(ValueError, match="^sieve limit 1000000000 exceeds supported maximum 16777216$"):
        exact_hypothesis_count(10**9, 3)
    assert calls == []
    assert exact_hypothesis_count(10, 2) == 180 and calls == [(9, 1), (9, 2)]


# --- toy attack ----------------------------------------------------------------

def planted_instance(q=13, added=(1,), n=10):
    pn = d_sequence(q, n)
    bps = binary_primes_sequence(n, (0, *added))
    return harden(pn, bps)


def test_attack_recovers_planted_instance():
    observed = planted_instance()
    result = brute_force_attack(observed, 1)
    assert result.hypotheses_tested == 36
    assert (13, (0, 1)) in result.consistent_hypotheses


def test_attack_count_matches_exact_count():
    observed = planted_instance()
    for l_max in (1, 2, 3):
        result = brute_force_attack(observed, l_max)
        assert result.hypotheses_tested == exact_hypothesis_count(10, l_max)
    assert brute_force_attack(observed, 2).hypotheses_tested == 180


def test_attack_soundness():
    # every returned hypothesis must regenerate the observed bits exactly
    observed = planted_instance(q=17, added=(3, 6), n=12)
    result = brute_force_attack(observed, 2)
    assert result.consistent_hypotheses
    for q, shift_set in result.consistent_hypotheses:
        pn = d_sequence(q, 12)
        bps = binary_primes_sequence(12, shift_set)
        assert bits_of(harden(pn, bps)) == bits_of(observed)


def test_attack_completeness_within_bounds():
    for q, added, n in ((11, (3,), 10), (17, (4,), 12), (19, (2, 5), 16)):
        observed = planted_instance(q=q, added=added, n=n)
        result = brute_force_attack(observed, len(added))
        assert (q, (0, *added)) in result.consistent_hypotheses


def test_attack_all_zeros_observed():
    observed = seq_of((0,) * 10)
    result = brute_force_attack(observed, 2)
    assert result.hypotheses_tested == 180
    for q, shift_set in result.consistent_hypotheses:
        pn = d_sequence(q, 10)
        bps = binary_primes_sequence(10, shift_set)
        assert bits_of(harden(pn, bps)) == bits_of(observed)


def test_attack_output_ordering():
    observed = planted_instance()
    result = brute_force_attack(observed, 3)
    keys = list(result.consistent_hypotheses)
    assert keys == sorted(keys)


def test_attack_instance_too_large():
    observed = seq_of((0,) * 30)
    with pytest.raises(ValueError, match=r"^instance too large: enforced bound is n <= 24, got n=30$"):
        brute_force_attack(observed, 1)
    # n is the only size cap: l_max is bounded by the 1..n-1 domain alone
    bits = (0,) * 10
    small = seq_of(bits)
    assert brute_force_attack(small, 4).as_dict() == oracle_brute_force(bits, 4)
    with pytest.raises(ValueError, match=r"^l_max must be in 1\.\.9, got 10$"):
        brute_force_attack(small, 10)


def test_attack_result_dict_shape():
    result = brute_force_attack(planted_instance(), 1)
    payload = result.as_dict()
    assert sorted(payload) == ["consistent_hypotheses", "hypotheses_tested"]
    assert payload["hypotheses_tested"] == 36
    assert {"q": 13, "shifts": [0, 1], "matched": True} in payload["consistent_hypotheses"]


def oracle_planted_bits(q, shifts, n):
    d = oracle_d_bits(q, n)
    b = oracle_bps_bits(n, shifts, set(oracle_primes_upto(n)))
    return [x ^ y for x, y in zip(d, b)]


def test_attack_recovers_key_on_last_candidate_modulus():
    # the largest candidate modulus, the pi(n)-th prime from n upwards, is the
    # one the candidate search reaches last, at every length the attack accepts
    for n in range(3, ATTACK_MAX_LENGTH + 1):
        q = oracle_attack_moduli(n)[-1]
        bits = oracle_planted_bits(q, (0, 1), n)
        result = brute_force_attack(seq_of(bits), 1)
        assert (q, (0, 1)) in result.consistent_hypotheses
        assert result.hypotheses_tested == oracle_brute_force(bits, 1)["hypotheses_tested"]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_attack_matches_oracle(data):
    n = data.draw(st.integers(min_value=3, max_value=14), label="n")
    # every l_max while the oracle's pi(n) * (2^(n-1) - 1) hypotheses stay cheap
    top = n - 1 if n <= 10 else 3
    l_max = data.draw(st.integers(min_value=1, max_value=top), label="l_max")
    if data.draw(st.booleans(), label="planted"):
        q = data.draw(st.sampled_from(oracle_attack_moduli(n)), label="q")
        added = data.draw(
            st.lists(st.integers(min_value=1, max_value=n - 1), min_size=1, max_size=l_max, unique=True),
            label="added",
        )
        bits = oracle_planted_bits(q, (0, *sorted(added)), n)
    else:
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="bits")
    result = brute_force_attack(seq_of(bits), l_max)
    assert result.as_dict() == oracle_brute_force(bits, l_max)


@pytest.mark.parametrize("bits, planted", [
    (oracle_planted_bits(31, (0, 2, 9, 17), 24), (31, [0, 2, 9, 17])),
    ([0] * 24, None),
    # shift 23 = n-1 moves every prime out of the window, so the planted set
    # and the same set without 23 both regenerate the observation
    (oracle_planted_bits(29, (0, 3, 7, 23), 24), (29, [0, 3, 7, 23])),
    # four added shifts: beyond l_max = 3, found from l_max = 4 on
    (oracle_planted_bits(61, (0, 3, 9, 17, 20), 24), (61, [0, 3, 9, 17, 20])),
], ids=["planted", "all-zero", "shift-n-1", "four-shifts"])
def test_attack_matches_oracle_at_caps(bits, planted):
    expected = oracle_brute_force(bits, 3)
    assert brute_force_attack(seq_of(bits), 3).as_dict() == expected
    assert expected["hypotheses_tested"] == exact_hypothesis_count(24, 3)
    assert exact_hypothesis_count(24, 23) == 9 * (2**23 - 1) == 75497463
    if planted is not None:
        q, shifts = planted
        found = {"q": q, "shifts": shifts, "matched": True} in expected["consistent_hypotheses"]
        assert found == (len(shifts) - 1 <= 3)
        for l_max in (4, 23):
            result = brute_force_attack(seq_of(bits), l_max)
            assert (q, tuple(shifts)) in result.consistent_hypotheses
            assert result.hypotheses_tested == exact_hypothesis_count(24, l_max)
    if planted == (29, [0, 3, 7, 23]):
        assert {"q": 29, "shifts": [0, 3, 7], "matched": True} in expected["consistent_hypotheses"]


def test_attack_counts_every_hypothesis_at_every_accepted_size():
    for n in range(3, ATTACK_MAX_LENGTH + 1):
        observed = seq_of((0,) * n)
        for l_max in range(1, n):
            tested = brute_force_attack(observed, l_max).hypotheses_tested
            assert tested == exact_hypothesis_count(n, l_max), (n, l_max)


def peel_edge_cases(n, l_max):
    # (name, observed bits, shift sets expected at q) where each peel rule bites
    q = oracle_attack_moduli(n)[-1]
    planted = oracle_planted_bits(q, (0, 1), n)
    cases = [
        # residual 0 at q: the empty set is no hypothesis, {n - 1} adds a zero row
        ("residual-zero", oracle_planted_bits(q, (0,), n), [[0, n - 1]]),
        ("shift-n-2", oracle_planted_bits(q, (0, n - 2), n),
         [[0, n - 2]] + ([[0, n - 2, n - 1]] if l_max >= 2 else [])),
        ("position-1", [1 - planted[0]] + planted[1:], []),
        ("position-2", planted[:1] + [1 - planted[1]] + planted[2:], []),
    ]
    if n - 1 - l_max >= 1:
        full = list(range(n - 1 - l_max, n - 1))  # l_max shifts, so no n - 1 variant
        cases.append(("full-set", oracle_planted_bits(q, (0, *full), n), [[0, *full]]))
    if n - 2 - l_max >= 1:
        beyond = range(n - 2 - l_max, n - 1)  # one peel more than l_max allows
        cases.append(("l_max+1-peels", oracle_planted_bits(q, (0, *beyond), n), []))
    return q, cases


@pytest.mark.parametrize("n, l_max", [(n, l) for n in (3, 4, 5, 12)
                                      for l in range(1, min(3, n - 1) + 1)])
def test_attack_peel_edge_cases_match_oracle(n, l_max):
    q, cases = peel_edge_cases(n, l_max)
    for name, bits, expected_at_q in cases:
        expected = oracle_brute_force(bits, l_max)
        assert brute_force_attack(seq_of(bits), l_max).as_dict() == expected, name
        found = [h["shifts"] for h in expected["consistent_hypotheses"] if h["q"] == q]
        assert found == expected_at_q, name


# --- assembled estimate ----------------------------------------------------------

def test_estimate_search_space_exact_count_presence():
    small = estimate_search_space(10, l_max=2)
    assert list(small) == ["log10_paper_formula", "log10_consistent_formula", "exact_count"]
    assert small["exact_count"] == 180
    large = estimate_search_space(1000)
    assert list(large) == ["log10_paper_formula", "log10_consistent_formula"]
    assert large["log10_paper_formula"] > large["log10_consistent_formula"]
