import warnings

import numpy as np
import pytest

from periodlab import gaussmanin, numerics
from periodlab.elliptic import SIGMA, discriminant, period_matrix
from periodlab.errors import NonIntegralMonodromy, ValidationError
from periodlab.gaussmanin import (
    MonodromyMatrix,
    circle_loop,
    connection_matrix,
    monodromy,
    transport,
    transport_entries,
)
from periodlab.numerics import ParamPath

import oracles


def draw_point(rng, min_disc=1.0):
    while True:
        t2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        t3 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(discriminant((t2, t3))) >= min_disc:
            return (t2, t3)


class TestConnection:
    def test_trace_free(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = draw_point(rng)
            v = (complex(rng.normal(), rng.normal()),
                 complex(rng.normal(), rng.normal()))
            a = connection_matrix(t, v)
            assert abs(np.trace(a)) < 1e-12

    def test_linear_in_velocity(self):
        t = (2.0 + 1.0j, 0.5)
        v1, v2 = (1.0, 0.3j), (-0.2j, 1.0)
        a1 = connection_matrix(t, v1)
        a2 = connection_matrix(t, v2)
        both = connection_matrix(t, (v1[0] + v2[0], v1[1] + v2[1]))
        assert np.allclose(a1 + a2, both, atol=1e-12)

    def test_finite_difference_of_periods(self):
        # dP = P A^T: compare the analytic connection against a centered
        # difference of direct quadrature in both coordinate directions
        t = (4.0, 1.0)
        p = period_matrix(t).entries
        h = 1e-5
        for v in ((1.0, 0.0), (0.0, 1.0)):
            tp = (t[0] + h * v[0], t[1] + h * v[1])
            tm = (t[0] - h * v[0], t[1] - h * v[1])
            dp = (period_matrix(tp).entries
                  - period_matrix(tm).entries) / (2 * h)
            a = connection_matrix(t, v)
            assert np.max(np.abs(dp - p @ a.T)) < 1e-6


class TestTransport:
    def test_round_trip_is_identity(self):
        path = ParamPath([(4.0, 0.0), (4.0, 1.0), (3.0 + 1.0j, 1.0)],
                         discriminant=discriminant)
        pm = period_matrix((4.0, 0.0))
        there = transport(path, pm)
        back = transport(ParamPath(path.waypoints[::-1], discriminant=discriminant), there)
        assert np.max(np.abs(back.entries - pm.entries)) < 1e-9

    def test_determinant_preserved(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 3:
            a, b = draw_point(rng), draw_point(rng)
            try:
                path = ParamPath([a, b], discriminant=discriminant)
            except Exception:
                continue
            pm = period_matrix(a)
            out = transport(path, pm)
            assert abs(out.det - pm.det) < 1e-9
            done += 1

    def test_matches_quadrature_on_frozen_paths(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 3:
            a = draw_point(rng)
            d = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            b = (a[0] + d[0], a[1] + d[1])
            if abs(discriminant(b)) < 1.0:
                continue
            try:
                path = ParamPath([a, b], discriminant=discriminant)
            except Exception:
                continue
            end = transport(path, period_matrix(a)).entries
            direct = period_matrix(b).entries
            assert np.max(np.abs(end - direct)) < 1e-6
            done += 1

    def test_matches_quadrature_up_to_integer_rows(self):
        # on arbitrary paths the two computations may disagree by the
        # integer change of cycle basis; never by anything else
        rng = np.random.default_rng(99)
        done = 0
        while done < 4:
            a, b = draw_point(rng), draw_point(rng)
            try:
                path = ParamPath([a, b], discriminant=discriminant)
            except Exception:
                continue
            end = transport(path, period_matrix(a)).entries
            direct = period_matrix(b).entries
            m = end @ np.linalg.inv(direct)
            mi = np.round(m.real)
            assert np.max(np.abs(m - mi)) < 1e-6
            assert abs(round(np.linalg.det(mi))) == 1
            done += 1


@pytest.fixture(scope="module")
def unipotent_loop():
    return circle_loop(4.0, oracles.T3_ROOT, 0.6)


class TestMonodromy:
    def test_loop_geometry(self):
        loop = circle_loop(4.0, 1.0j, 0.25, turns=1)
        assert loop.is_closed()
        assert loop.waypoints.shape[0] == 65
        radii = np.abs(loop.waypoints[:, 1] - 1.0j)
        assert np.allclose(radii, 0.25)
        assert np.all(loop.waypoints[:, 0] == 4.0)
        two = circle_loop(4.0, 1.0j, 0.25, turns=2)
        assert two.waypoints.shape[0] == 129

    def test_frozen_unipotent_matrix(self, unipotent_loop):
        m = monodromy(unipotent_loop)
        assert np.array_equal(m.entries, oracles.M_LOOP)
        assert m.trace == 2
        n = m.entries - np.eye(2, dtype=np.int64)
        assert np.array_equal(n @ n, np.zeros((2, 2), dtype=np.int64))
        assert m.deviation < 1e-8

    def test_double_loop_squares(self, unipotent_loop):
        twice = circle_loop(4.0, oracles.T3_ROOT, 0.6, turns=2)
        m2 = monodromy(twice)
        assert np.array_equal(m2.entries, oracles.M_LOOP @ oracles.M_LOOP)

    def test_reversed_loop_inverts(self, unipotent_loop):
        back = monodromy(ParamPath(unipotent_loop.waypoints[::-1], discriminant=discriminant))
        assert np.array_equal(back.entries @ oracles.M_LOOP, np.eye(2))

    def test_trivial_loop(self):
        loop = circle_loop(4.0, 4.0 + 4.0j, 0.3)
        m = monodromy(loop)
        assert np.array_equal(m.entries, np.eye(2))

    def test_open_path_rejected(self):
        path = ParamPath([(4.0, 0.0), (4.0, 1.0)])
        with pytest.raises(ValidationError):
            monodromy(path)

    def test_matrix_validation(self):
        with pytest.raises(Exception):
            MonodromyMatrix(np.array([[2, 0], [0, 1]]), 0.0)


def seeded_circle(rng, enclosed, real_t2):
    """A t3-plane circle at fixed t2 around 0, 1 or 2 discriminant roots.

    Every root keeps a distance of at least 15% of their separation from
    the circle.
    """
    while True:
        t2 = 4.0 * (1.0 + 0.25 * complex(rng.uniform(-1, 1),
                                         0.0 if real_t2 else rng.uniform(-1, 1)))
        r = complex(np.sqrt(t2 ** 3 / 27))
        roots, d = (r, -r), abs(2 * r)
        offset = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if enclosed == 1:
            center, radius = roots[rng.integers(2)] + 0.15 * d * offset, d * rng.uniform(0.3, 0.6)
        elif enclosed == 2:
            center, radius = 0.1 * d * offset, d * rng.uniform(0.75, 1.0)
        else:
            center = 1j * d * rng.uniform(0.6, 1.0) * rng.choice([-1, 1]) + 0.2 * d * offset
            radius = d * rng.uniform(0.2, 0.4)
        dist = [abs(center - x) for x in roots]
        if sum(x < radius for x in dist) == enclosed and \
                min(abs(x - radius) for x in dist) >= 0.15 * d:
            return t2, center, radius


class TestMonodromyRoutes:
    @pytest.mark.parametrize("enclosed", [0, 1, 2])
    @pytest.mark.parametrize("turns", [1, -1, 2, -2])
    def test_matches_ode_oracle(self, enclosed, turns):
        # real t2 for positive turns, complex for negative ones, so every
        # number of enclosed points and every |turns| sees both
        rng = np.random.default_rng(100 + 10 * enclosed + turns)
        t2, center, radius = seeded_circle(rng, enclosed, real_t2=turns > 0)
        loop = circle_loop(t2, center, radius, turns)
        P0 = period_matrix(tuple(loop.start))
        want, _ = oracles.oracle_monodromy_ode(loop, P0.entries)
        got = monodromy(loop)
        assert np.array_equal(got.entries, want)
        assert got.deviation < 1e-12
        if enclosed == 0:
            assert np.array_equal(got.entries, np.eye(2))

    def test_no_ode(self, monkeypatch, unipotent_loop):
        def forbidden(*args, **kwargs):
            raise AssertionError("monodromy must not call this")

        monkeypatch.setattr(gaussmanin, "integrate_linear_ode", forbidden)
        monkeypatch.setattr(numerics, "integrate_linear_ode", forbidden)
        monkeypatch.setattr(gaussmanin, "transport_entries", forbidden)
        assert np.array_equal(monodromy(unipotent_loop).entries, oracles.M_LOOP)

    def test_basepoints(self, unipotent_loop):
        P0 = period_matrix(tuple(unipotent_loop.start)).entries
        with pytest.raises(NonIntegralMonodromy):
            monodromy(unipotent_loop, np.eye(2))
        assert np.array_equal(monodromy(unipotent_loop, 2.0 * P0).entries, oracles.M_LOOP)
        # another cycle basis G P0: the monodromy in its rows, as the ODE sees it
        G = np.array([[2, 1], [1, 1]])
        got = monodromy(unipotent_loop, G @ P0)
        want, _ = oracles.oracle_monodromy_ode(unipotent_loop, G @ P0)
        assert np.array_equal(got.entries, want)
        assert np.array_equal(got.entries, G @ oracles.M_LOOP @ np.linalg.inv(G).round())

    def test_loop_that_does_not_close(self, monkeypatch, unipotent_loop):
        # the end matrix is rounded once, with the basis change, so a
        # continuation that misses M_Q Q0 by 0.01 is not rounded away
        P0 = period_matrix(tuple(unipotent_loop.start))
        continue_basis = gaussmanin.elliptic._continue_basis
        monkeypatch.setattr(gaussmanin.elliptic, "_continue_basis",
                            lambda w, T: (np.array(continue_basis(w, T)) + 0.01).tolist())
        with pytest.raises(NonIntegralMonodromy):
            monodromy(unipotent_loop, P0)

    @pytest.mark.parametrize("bad", [np.eye(3), np.full((2, 2), np.nan), np.ones((2, 2))],
                             ids=["shape", "nan", "singular"])
    def test_bad_basepoint_rejected(self, unipotent_loop, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                monodromy(unipotent_loop, bad)


class TestWorkCounts:
    def test_loop_hook_calls(self, monkeypatch):
        # 128 sides: 3 samples each plus the closing point
        calls = []
        monkeypatch.setattr(gaussmanin.elliptic, "discriminant",
                            lambda p: calls.append(p) or discriminant(p))
        circle_loop(4.0, oracles.T3_ROOT, 0.6, sides=64, turns=2)
        assert len(calls) <= 385

    def test_monodromy_carlson_matrix_calls(self, carlson_work, unipotent_loop):
        gaussmanin.elliptic._anchor_matrix()
        work = carlson_work(lambda: monodromy(unipotent_loop))
        # Q0 and the step points of the two scans (basepoint path and loop)
        assert 1 + work.consulted == 157
        assert work.computed == work.consulted and work.unused == [[], []]


class TestLoopCertificate:
    @pytest.mark.parametrize("enclosed", [0, 1, 2])
    @pytest.mark.parametrize("turns", [1, -1, 2, -2])
    def test_matches_per_segment_oracle(self, enclosed, turns):
        rng = np.random.default_rng(300 + 10 * enclosed + turns)
        t2, center, radius = seeded_circle(rng, enclosed, real_t2=turns > 0)
        loop = circle_loop(t2, center, radius, turns)
        want = oracles.oracle_clearance(loop, discriminant)
        assert abs(loop.clearance - want) <= 1e-8 * want


class TestContracts:
    @pytest.mark.parametrize("sides", [0, -1, 2, 3.5, True])
    def test_circle_loop_sides(self, sides):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                circle_loop(4.0, 4.0j, 0.5, sides=sides)

    @pytest.mark.parametrize("turns", [1.5, 0.5, float("nan"), True, False])
    def test_circle_loop_turns(self, turns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                circle_loop(4.0, 4.0j, 0.5, turns=turns)

    def test_circle_loop_fewest_sides(self):
        assert circle_loop(4.0, 4.0j, 0.5, sides=3).waypoints.shape == (4, 2)

    @pytest.mark.parametrize("waypoints", [
        [1.0, 2.0, 1.0],
        [(4.0, 1.0, 0.0), (4.0, 2.0, 0.0), (4.0, 1.0, 0.0)]], ids=["C1", "C3"])
    def test_path_outside_the_plane(self, waypoints):
        path = ParamPath(waypoints)
        for call in (lambda: monodromy(path),
                     lambda: transport_entries(path, np.eye(2)),
                     lambda: transport(path, np.eye(2))):
            with pytest.raises(ValidationError):
                call()
