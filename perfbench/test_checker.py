"""The benchmark's checker accepts true outputs and rejects tampered ones.

Run with ``python3 -m pytest perfbench/test_checker.py``.
"""

import pytest

import checker
from checker import CheckError

# a -> aab, b -> bba: an immersion, so its images start with distinct letters
PHI = ((1, 1, 2), (2, 2, 1))


def test_bs_witness_accepted_and_degree_plus_one_rejected():
    doubling = ((1, 1), (2, 2))  # a -> aa, b -> bb
    checker.check_bs_witness(doubling, (1,), 2, 1)
    with pytest.raises(CheckError):
        checker.check_bs_witness(doubling, (1,), 3, 1)


def test_not_disjoint_element_accepted_and_one_changed_letter_rejected():
    n = 2
    phi_n = checker.power_images(PHI, n)
    # identical images meet: w and g lie in phi^n(F), hence so does g^-1 w g
    w = checker.substitute(phi_n, (1, -2, 1))
    g = checker.substitute(phi_n, (2,))
    checker.check_not_disjoint(PHI, PHI, n, g, w)
    k = len(w) // 2
    other = 3 - w[k] if w[k] > 0 else -3 - w[k]  # a <-> b, sign kept
    tampered = w[:k] + (other,) + w[k + 1 :]
    assert tampered != w
    with pytest.raises(CheckError):
        checker.check_not_disjoint(PHI, PHI, n, g, checker.free_reduce(tampered))


def test_not_disjoint_rejects_trivial_element():
    with pytest.raises(CheckError):
        checker.check_not_disjoint(PHI, PHI, 1, (), ())


# sizes of the levels of pullback_filtration(lam1, 3), as hnncert built them
LAM1_LEVELS = [(25, 18), (289, 162), (2809, 1458)]


def lam1_levels():
    signatures = [["s1", "s2"], ["s1", "s2", "s3"], ["s1", "s2", "s3", "s4"]]
    carried = [[True, True], [True, True, False], [True, True, True, False]]
    return [
        {"vertices": v, "edges": e, "signatures": sig, "carried": c}
        for (v, e), sig, c in zip(LAM1_LEVELS, signatures, carried)
    ]


def test_filtration_sizes_follow_from_matrix_powers():
    assert [checker.filtration_level_size(PHI, i) for i in (1, 2, 3)] == LAM1_LEVELS
    checker.check_filtration(PHI, lam1_levels())


def test_filtration_level_with_one_product_edge_dropped_rejected():
    levels = lam1_levels()
    levels[2]["edges"] -= 1
    with pytest.raises(CheckError):
        checker.check_filtration(PHI, levels)


def test_filtration_carried_components_must_match_previous_level():
    levels = lam1_levels()
    levels[2]["carried"][-1] = True
    with pytest.raises(CheckError):
        checker.check_filtration(PHI, levels)


# the folded based graph of <a^2, a b a^-1>: 0 -a-> 1 -a-> 0, a b-loop at 1
FOLDED = (2, [(0, 1, 1), (1, 0, 1), (1, 1, 2)], 0)
RELABELLED = (2, [(1, 0, 1), (0, 1, 1), (0, 0, 2)], 1)


def test_based_isomorphism_accepts_a_relabelling():
    checker.check_based_isomorphic(FOLDED, RELABELLED, 2)
    for w in ((1, 1), (1, 2, -1)):
        assert checker.reads_closed_loop(FOLDED, w)
    assert not checker.reads_closed_loop(FOLDED, (2,))


def test_folded_graph_missing_an_edge_rejected():
    missing = (2, RELABELLED[1][:2], 1)
    with pytest.raises(CheckError):
        checker.check_based_isomorphic(FOLDED, missing, 2)
    moved = (2, [(1, 0, 1), (0, 1, 1), (1, 1, 2)], 1)  # the b-loop moved to the basepoint
    with pytest.raises(CheckError):
        checker.check_based_isomorphic(FOLDED, moved, 2)


def test_unfolded_graph_rejected():
    with pytest.raises(CheckError):
        checker.step_map((2, [(0, 1, 1), (0, 0, 1)], 0))


def test_intersection_rank_by_pair_states():
    rose = (1, [(0, 0, 1), (0, 0, 2)], 0)
    assert checker.intersection_rank(FOLDED, rose, 2) == 2
    assert checker.intersection_rank(FOLDED, FOLDED, 2) == 2
    only_a = (1, [(0, 0, 1)], 0)
    assert checker.intersection_rank(FOLDED, only_a, 2) == 1  # <a^2>


def test_expansion_power_by_substitution():
    assert checker.expansion_power(PHI, 3) == 1
    assert checker.expansion_power(((1, 2), (2, 1)), 3) == 2  # lengths 2, 4
    assert checker.expansion_power(((2,), (1,)), 3, cap=8) is None
