import os
from collections import OrderedDict

import pytest

from bubblelab import energy, fixtures
from bubblelab.profiles import RadialProfile, ShootingError


@pytest.fixture
def solves(monkeypatch):
    """An empty memo, and stub GN solvers that record each solve."""
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


class TestProfileMemo:
    def test_one_solve_per_key(self, solves):
        Q, Qp = fixtures.cached_gn_profiles(2, 3.0)
        again = fixtures.cached_gn_profiles(2, 3.0)
        assert again[0] is Q and again[1] is Qp
        assert solves == [(2, 3.0)]
        assert Qp.amplitude == fixtures._STD.order and Qp.shift == 0.05
        fixtures.cached_gn_profiles(3, 3.0)
        fixtures.cached_gn_profiles(2, 2.0)
        _, Qp1 = fixtures.cached_gn_profiles(2, 3.0, delta0=0.1)
        assert Qp1.shift == 0.1 and len(solves) == 4
        for args in ((2, 3.0), (3, 3.0), (2, 2.0)):
            fixtures.cached_gn_profiles(*args)
        assert len(solves) == 4

    def test_spec_is_a_separate_solve(self, solves):
        fixtures.cached_gn_profiles(2, 3.0)
        Qh, Qph = fixtures.cached_gn_profiles(2, 3.0, spec=fixtures._HIGH)
        assert solves == [(2, 3.0), (2, 3.0)]
        assert Qph.amplitude == fixtures._HIGH.order
        assert fixtures.cached_gn_profiles(2, 3.0, spec=fixtures._HIGH)[0] is Qh
        assert len(solves) == 2

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
