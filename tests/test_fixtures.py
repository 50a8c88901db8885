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

    def near_optimizer(Q):
        return RadialProfile(kind="gn-halfspace-near-optimizer", n=Q.n,
                             amplitude=1.0, p=Q.p, shift=2.0)

    monkeypatch.setattr(fixtures, "gn_ground_state", ground_state)
    monkeypatch.setattr(fixtures, "gn_halfspace_near_optimizer", near_optimizer)
    return calls


@pytest.fixture
def near_solves(solves, monkeypatch):
    """The ground state of each stub near-optimizer built."""
    calls = []
    stub = fixtures.gn_halfspace_near_optimizer

    def near_optimizer(Q):
        calls.append(Q)
        return stub(Q)

    monkeypatch.setattr(fixtures, "gn_halfspace_near_optimizer", near_optimizer)
    return calls


class TestProfileMemo:
    def test_one_solve_per_key(self, solves, near_solves):
        # the key is (n, p): one ground-state solve and one near-optimizer each
        Q, Qp = fixtures.cached_gn_profiles(2, 3.0)
        again = fixtures.cached_gn_profiles(2, 3.0)
        assert again[0] is Q and again[1] is Qp
        assert solves == [(2, 3.0)] and near_solves == [Q]
        assert Qp.p == 3.0 and Qp.shift == 2.0
        fixtures.cached_gn_profiles(3, 3.0)
        fixtures.cached_gn_profiles(2, 2.0)
        assert len(solves) == 3 and len(near_solves) == 3
        for args in ((2, 3.0), (3, 3.0), (2, 2.0)):
            fixtures.cached_gn_profiles(*args)
        assert len(solves) == 3 and len(near_solves) == 3

    def test_ground_state_shared(self, solves, near_solves):
        Q = fixtures.cached_gn_ground_state(2, 3.0)
        assert fixtures.cached_gn_ground_state(2, 3.0) is Q and not near_solves
        assert fixtures.cached_gn_profiles(2, 3.0)[0] is Q
        assert solves == [(2, 3.0)] and near_solves == [Q]

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


def test_regenerate_writes_atomically(monkeypatch, tmp_path):
    # a write leaves the file alone; a failed one (here its rename) keeps the
    # old file whole and leaves no temp file
    path = tmp_path / "derived.json"
    monkeypatch.setattr(fixtures, "_compute_entries", lambda spec: {"x": 1.0})
    assert fixtures.regenerate(path)["n_entries"] == 1
    old = path.read_text()
    monkeypatch.setattr(fixtures, "_compute_entries", lambda spec: {})
    monkeypatch.setattr(os, "replace", lambda src, dst: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        fixtures.regenerate(path)
    assert path.read_text() == old and list(tmp_path.iterdir()) == [path]
