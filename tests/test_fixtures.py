import os
from collections import OrderedDict

import pytest

from bubblelab import energy, fixtures
from bubblelab.profiles import RadialProfile, ShootingError


@pytest.fixture
def solves(monkeypatch):
    """An empty memo, and stub GN solvers that record each ground-state solve."""
    monkeypatch.setattr(energy, "_memo", OrderedDict())
    calls = []

    def ground_state(n, p):
        calls.append((n, p))
        return RadialProfile(kind="gn-ground-state", n=n, amplitude=1.0, p=p)

    def near_optimizer(n, p, delta0, spec, ground_state):
        return RadialProfile(kind="gn-halfspace-near-optimizer", n=n,
                             amplitude=float(spec.order), p=p, shift=delta0)

    monkeypatch.setattr(fixtures, "gn_ground_state", ground_state)
    monkeypatch.setattr(fixtures, "gn_halfspace_near_optimizer", near_optimizer)
    return calls


@pytest.fixture
def near_solves(solves, monkeypatch):
    """The stub near-optimizer's (spec order, ground state) for each solve."""
    calls = []
    stub = fixtures.gn_halfspace_near_optimizer

    def near_optimizer(n, p, delta0, spec, ground_state):
        calls.append((spec.order, ground_state))
        return stub(n, p, delta0, spec, ground_state)

    monkeypatch.setattr(fixtures, "gn_halfspace_near_optimizer", near_optimizer)
    return calls


class TestProfileMemo:
    def test_one_solve_per_key(self, solves, near_solves):
        Q, Qp = fixtures.cached_gn_profiles(2, 3.0)
        again = fixtures.cached_gn_profiles(2, 3.0)
        assert again[0] is Q and again[1] is Qp
        assert solves == [(2, 3.0)] and len(near_solves) == 1
        assert Qp.amplitude == fixtures._STD.order and Qp.shift == 0.05
        fixtures.cached_gn_profiles(3, 3.0)
        fixtures.cached_gn_profiles(2, 2.0)
        Q1, Qp1 = fixtures.cached_gn_profiles(2, 3.0, delta0=0.1)
        # a new delta0 solves a new near-optimizer on the memoized ground state
        assert Qp1.shift == 0.1 and Q1 is Q and near_solves[-1][1] is Q
        assert len(solves) == 3 and len(near_solves) == 4
        for args in ((2, 3.0), (3, 3.0), (2, 2.0)):
            fixtures.cached_gn_profiles(*args)
        assert len(solves) == 3 and len(near_solves) == 4

    def test_spec_is_a_separate_solve(self, solves, near_solves):
        # a new spec solves a new near-optimizer on the memoized ground state
        Q, _ = fixtures.cached_gn_profiles(2, 3.0)
        Qh, Qph = fixtures.cached_gn_profiles(2, 3.0, spec=fixtures._HIGH)
        assert solves == [(2, 3.0)] and Qh is Q
        assert near_solves == [(fixtures._STD.order, Q), (fixtures._HIGH.order, Q)]
        assert Qph.amplitude == fixtures._HIGH.order
        assert fixtures.cached_gn_profiles(2, 3.0, spec=fixtures._HIGH)[1] is Qph
        assert len(solves) == 1 and len(near_solves) == 2

    def test_ground_state_shared(self, solves, near_solves):
        Q = fixtures.cached_gn_ground_state(2, 3.0)
        assert fixtures.cached_gn_ground_state(2, 3.0) is Q and not near_solves
        assert fixtures.cached_gn_profiles(2, 3.0)[0] is Q
        assert solves == [(2, 3.0)] and near_solves == [(fixtures._STD.order, Q)]

    def test_failed_solve_stores_nothing(self, solves, monkeypatch):
        def failing(n, p):
            solves.append((n, p))
            raise ShootingError("no ground state")

        monkeypatch.setattr(fixtures, "gn_ground_state", failing)
        for _ in range(2):
            with pytest.raises(ShootingError):
                fixtures.cached_gn_profiles(3, 4.9)
        assert len(solves) == 2 and not energy._memo

    def test_nothing_written_to_disk(self, solves, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        for name in [k for k in os.environ if k.startswith("BUBBLELAB_")]:
            monkeypatch.delenv(name)
        fixtures.cached_gn_profiles(2, 3.0)
        assert len(solves) == 1
        assert list(tmp_path.iterdir()) == []
