import json

import pytest

from bubblelab import fixtures
from bubblelab.profiles import RadialProfile


@pytest.fixture
def solves(monkeypatch, tmp_path):
    """An empty profile cache, and stub GN solvers that record each solve."""
    monkeypatch.setenv("BUBBLELAB_CACHE", str(tmp_path))
    calls = []

    def ground_state(n, p, spec):
        calls.append(spec)
        return RadialProfile(kind="gn-ground-state", n=n, amplitude=float(spec.order), p=p)

    def near_optimizer(n, p, delta0, spec, ground_state):
        return RadialProfile(kind="gn-halfspace-near-optimizer", n=n,
                             amplitude=ground_state.amplitude, p=p, shift=1.0)

    monkeypatch.setattr(fixtures, "gn_ground_state", ground_state)
    monkeypatch.setattr(fixtures, "gn_halfspace_near_optimizer", near_optimizer)
    return calls


class TestProfileCache:
    def test_spec_enters_the_key(self, solves, tmp_path):
        # a file under the old (n, p, delta0) name is never read
        (tmp_path / "gn_2_3.0_0.05.json").write_text("stale")
        Q, _ = fixtures.cached_gn_profiles(2, 3.0)
        Q2, _ = fixtures.cached_gn_profiles(2, 3.0)
        assert solves == [fixtures._STD] and Q2.amplitude == Q.amplitude == 20.0
        Qh, Qph = fixtures.cached_gn_profiles(2, 3.0, spec=fixtures._HIGH)
        assert solves == [fixtures._STD, fixtures._HIGH]
        assert Qh.amplitude == Qph.amplitude == float(fixtures._HIGH.order)
        fixtures.cached_gn_profiles(2, 3.0, spec=fixtures._HIGH)
        assert len(solves) == 2
        assert len(list(tmp_path.iterdir())) == 3       # stale file + one per spec

    def test_writes_leave_one_file(self, tmp_path):
        path = tmp_path / "gn_key.json"
        fixtures._write_atomic(path, json.dumps({"write": 1}))
        fixtures._write_atomic(path, json.dumps({"write": 2}))
        assert [f.name for f in tmp_path.iterdir()] == ["gn_key.json"]
        assert json.loads(path.read_text()) == {"write": 2}

    def test_failed_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "x").write_text("")
        with pytest.raises(OSError):
            fixtures._write_atomic(target, "{}")
        assert [f.name for f in tmp_path.iterdir()] == ["occupied"]
