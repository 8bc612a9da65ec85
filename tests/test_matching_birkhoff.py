"""Tests for Birkhoff rate-matrix decomposition (Remark 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import Flow
from repro.core.instance import Instance
from repro.core.switch import Switch
from repro.lp.solver import solve_lp
from repro.matching.birkhoff import (
    birkhoff_decomposition,
    rates_from_lp_solution,
    reconstruct,
)


class TestKnownMatrices:
    def test_permutation_matrix_single_term(self):
        P = np.eye(3)
        terms = birkhoff_decomposition(P)
        assert len(terms) == 1
        weight, matching = terms[0]
        assert weight == pytest.approx(1.0)
        assert sorted(matching) == [(0, 0), (1, 1), (2, 2)]

    def test_uniform_doubly_stochastic(self):
        R = np.full((3, 3), 1 / 3)
        terms = birkhoff_decomposition(R)
        assert sum(w for w, _ in terms) == pytest.approx(1.0)
        assert np.allclose(reconstruct((3, 3), terms), R)
        for _, matching in terms:
            assert len(matching) == 3

    def test_zero_matrix(self):
        assert birkhoff_decomposition(np.zeros((2, 4))) == []

    def test_substochastic_partial_matchings(self):
        R = np.array([[0.5, 0.0], [0.0, 0.0]])
        terms = birkhoff_decomposition(R)
        assert sum(w for w, _ in terms) == pytest.approx(0.5)
        assert np.allclose(reconstruct((2, 2), terms), R)

    def test_rectangular(self):
        R = np.array([[0.4, 0.6, 0.0], [0.0, 0.4, 0.3]])
        terms = birkhoff_decomposition(R)
        assert np.allclose(reconstruct((2, 3), terms), R)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            birkhoff_decomposition(np.array([[-0.1]]))

    def test_superstochastic_rejected(self):
        with pytest.raises(ValueError, match="substochastic"):
            birkhoff_decomposition(np.array([[0.7, 0.7]]))


@st.composite
def substochastic(draw):
    m = draw(st.integers(1, 4))
    mp = draw(st.integers(1, 4))
    cells = [
        [draw(st.integers(0, 4)) for _ in range(mp)] for _ in range(m)
    ]
    R = np.asarray(cells, dtype=np.float64)
    denom = max(R.sum(axis=1).max(), R.sum(axis=0).max(), 1.0)
    return R / denom * draw(st.floats(0.2, 1.0))


class TestDecompositionProperties:
    @given(substochastic())
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_and_convexity(self, R):
        terms = birkhoff_decomposition(R)
        assert np.allclose(reconstruct(R.shape, terms), R, atol=1e-6)
        assert sum(w for w, _ in terms) <= 1.0 + 1e-6
        for weight, matching in terms:
            assert weight > 0
            us = [u for u, _ in matching]
            vs = [v for _, v in matching]
            assert len(set(us)) == len(us)
            assert len(set(vs)) == len(vs)


class TestFromLP:
    def test_lp_round_rates_decompose(self):
        """End-to-end Remark 3.2: LP (1)-(4) round rates are
        substochastic and BvN-decomposable."""
        from repro.art.lp_relaxation import build_fractional_art_lp

        inst = Instance.create(
            Switch.create(3),
            [Flow(0, 0), Flow(1, 0), Flow(2, 0), Flow(0, 1), Flow(1, 2)],
        )
        lp = build_fractional_art_lp(inst)
        res = solve_lp(lp)
        values = {
            ("b", fid, t): x
            for fid, t, x in zip(lp.flow.tolist(), lp.round.tolist(), res.x)
        }
        for t in range(3):
            R = rates_from_lp_solution(values, 3, 3, t, inst.flows)
            assert (R.sum(axis=0) <= 1 + 1e-7).all()
            assert (R.sum(axis=1) <= 1 + 1e-7).all()
            terms = birkhoff_decomposition(R)
            assert np.allclose(reconstruct((3, 3), terms), R, atol=1e-6)
