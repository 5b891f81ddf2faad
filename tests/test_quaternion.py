import copy
import dataclasses
import math
import pickle
import random

import pytest

from hquat import CayleyDickson, I, J, K, ONE, Quaternion, ZERO, ZeroDivisorError, evaluate, parse


def random_quat(rng, span=10.0):
    return Quaternion(*[rng.uniform(-span, span) for _ in range(4)])


def hamilton_product(p, q):
    """Direct 16-term component product from i^2=j^2=k^2=-1, ij=k, jk=i, ki=j."""
    return Quaternion(
        p.x * q.x - p.y * q.y - p.z * q.z - p.u * q.u,
        p.x * q.y + p.y * q.x + p.z * q.u - p.u * q.z,
        p.x * q.z - p.y * q.u + p.z * q.x + p.u * q.y,
        p.x * q.u + p.y * q.z - p.z * q.y + p.u * q.x,
    )


def test_basis_relations():
    assert I * I == Quaternion(-1, 0, 0, 0)
    assert J * J == Quaternion(-1, 0, 0, 0)
    assert K * K == Quaternion(-1, 0, 0, 0)
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J


def test_identity_and_simple_squares():
    rng = random.Random(1)
    for _ in range(50):
        p = random_quat(rng)
        assert ONE * p == p
        assert p * ONE == p
        assert p + ZERO == p
    assert (I + J) * (I + J) == Quaternion(-2, 0, 0, 0)


def test_doubling_multiplication_matches_component_product():
    rng = random.Random(2)
    for _ in range(2000):
        p = random_quat(rng)
        q = random_quat(rng)
        got = p * q
        want = hamilton_product(p, q)
        scale = max(1.0, want.norm())
        assert (got - want).norm() <= 1e-13 * scale


def test_norm_multiplicative():
    rng = random.Random(3)
    for _ in range(10_000):
        p = random_quat(rng)
        q = random_quat(rng)
        lhs = (p * q).norm()
        rhs = p.norm() * q.norm()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_norm_agrees_with_doubling_form():
    rng = random.Random(4)
    for _ in range(200):
        p = random_quat(rng)
        a, b = p.to_cd()
        via_cd = math.sqrt((a * a.conjugate() + b * b.conjugate()).real)
        assert abs(p.norm() - via_cd) <= 1e-13 * max(1.0, p.norm())


def test_conjugation():
    assert ONE.conjugate() == ONE
    assert (I + J + K).conjugate() == -(I + J + K)
    rng = random.Random(5)
    for _ in range(500):
        p = random_quat(rng)
        q = random_quat(rng)
        # p * conj(p) is the squared norm on the real axis
        pc = p * p.conjugate()
        assert abs(pc.x - p.norm_sq()) <= 1e-12 * max(1.0, p.norm_sq())
        assert abs(pc.y) <= 1e-12 * max(1.0, p.norm_sq())
        # antihomomorphism
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_associativity():
    rng = random.Random(6)
    for _ in range(1000):
        p, q, r = (random_quat(rng) for _ in range(3))
        lhs = (p * q) * r
        rhs = p * (q * r)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_inverse():
    assert Quaternion.from_real(2.0).inverse() == Quaternion.from_real(0.5)
    assert J.inverse() == -J
    inv = Quaternion(1, 1, 1, 1).inverse()
    assert inv.isclose(Quaternion(0.25, -0.25, -0.25, -0.25), rel_tol=1e-15)
    rng = random.Random(7)
    for _ in range(200):
        p = random_quat(rng)
        if p.norm() < 1e-3:
            continue
        assert (p * p.inverse()).isclose(ONE, rel_tol=0, abs_tol=1e-12)
        assert (p.inverse() * p).isclose(ONE, rel_tol=0, abs_tol=1e-12)
    with pytest.raises(ZeroDivisorError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisorError):
        ONE / 0.0


def test_norm_and_inverse_past_the_square_overflow():
    # |p|^2 overflows above |p| ~ 1.3e154; the norm read inf and the
    # inverse conj(p)/inf a silent 0
    assert Quaternion(3 * 2.0**600, 0, -4 * 2.0**600, 0).norm() == 5 * 2.0**600
    assert Quaternion(1e155, 0, 0, 0).inverse() == Quaternion(1e-155, 0, 0, 0)
    assert Quaternion(1e300, 1e300, 0, 0).inverse() == Quaternion(5e-301, -5e-301, 0, 0)
    assert Quaternion(*[2.0**1020] * 4).norm() == 2.0**1021
    big = Quaternion(*[1.7e308] * 4)
    assert (big * big.inverse()).isclose(ONE, rel_tol=0, abs_tol=1e-15)
    rng = random.Random(11)
    for _ in range(200):
        p = random_quat(rng, span=1e300)
        assert (p * p.inverse()).isclose(ONE, rel_tol=0, abs_tol=1e-12)


def test_cd_round_trip_bit_exact():
    cd = Quaternion(1, 2, 3, 4).to_cd()
    assert cd == CayleyDickson(complex(1, 2), complex(3, 4))
    assert type(cd) is CayleyDickson and (cd.a, cd.b) == (1 + 2j, 3 + 4j) and len(cd) == 2
    assert cd._replace(b=0j) == CayleyDickson(1 + 2j, 0j)
    assert Quaternion.from_cd(0j, 0j) == ZERO
    rng = random.Random(8)
    for _ in range(500):
        p = random_quat(rng)
        assert Quaternion.from_cd(*p.to_cd()) == p


def test_scalar_operations():
    assert (I + J) * 2.0 == Quaternion(0, 2, 2, 0)
    assert 2.0 * (I + J) == Quaternion(0, 2, 2, 0)
    rng = random.Random(9)
    for _ in range(500):
        p = random_quat(rng)
        q = random_quat(rng)
        r = rng.uniform(-5, 5)
        lhs = (p * r) * q
        rhs = (p * q) * r
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())
        assert p + 1.5 == Quaternion(p.x + 1.5, p.y, p.z, p.u)
        assert p - p == ZERO
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    assert q / 2.0 == Quaternion(0.5, -1.0, 1.5, 0.25)
    assert 3 - q == Quaternion(2.0, 2.0, -3.0, -0.5)


def test_right_division():
    rng = random.Random(10)
    for _ in range(100):
        p = random_quat(rng)
        q = random_quat(rng)
        if q.norm() < 1e-3:
            continue
        assert ((p / q) * q).isclose(p, rel_tol=1e-11, abs_tol=1e-11)


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Quaternion(float("inf"), 0, 0, 0)
    with pytest.raises(ValueError):
        Quaternion(0, float("nan"), 0, 0)
    # the message names the first non-finite component
    for i, name in enumerate("xyzu"):
        comps = [1.0, 2.0, 3.0, 4.0]
        comps[i] = -math.inf
        with pytest.raises(ValueError, match=f"non-finite quaternion component {name}=-inf"):
            Quaternion(*comps)
    with pytest.raises(ValueError, match="component z=nan"):
        Quaternion(0, 1, math.nan, math.inf)


class _Half(float):
    pass


def test_constructor_stores_floats():
    q = Quaternion(1, True, 2.5, -0.0)
    assert [type(c) for c in (q.x, q.y, q.z, q.u)] == [float] * 4
    assert (q.x, q.y, q.z, math.copysign(1.0, q.u)) == (1.0, 1.0, 2.5, -1.0)
    # float subclasses are stored as exact floats, on every construction path
    q = Quaternion(3, False, _Half(0.5), -0.0)
    assert [type(c) for c in (q.x, q.y, q.z, q.u)] == [float] * 4
    assert (q.x, q.y, q.z) == (3.0, 0.0, 0.5)
    assert math.copysign(1.0, Quaternion(-0.0, -0.0, -0.0, -0.0).x) == -1.0
    assert type(Quaternion(x=_Half(2.0)).x) is float
    assert type(dataclasses.replace(ONE, y=_Half(1.0)).y) is float
    assert Quaternion(2**60, 0, 0, 0).x == float(2**60)
    with pytest.raises(ValueError, match="component x=inf"):
        Quaternion(_Half("inf"), 0, 0, 0)
    with pytest.raises(TypeError):
        Quaternion(None, 0, 0, 0)
    with pytest.raises(OverflowError):
        Quaternion(10**400, 0, 0, 0)
    # finite components whose sum overflows are still accepted
    assert Quaternion(*[1.7e308] * 4).x == 1.7e308


def test_norm_and_inverse_past_the_square_underflow():
    # |p|^2 underflows below |p| ~ 1.5e-154; the norm read 0 and the inverse
    # was rejected as a zero divisor although 1/|p| is representable
    assert Quaternion(3e-170, 0, 4e-170, 0).norm() == math.hypot(3e-170, 4e-170)
    assert Quaternion(0, 3 * 2.0**-600, 0, -4 * 2.0**-600).norm() == 5 * 2.0**-600
    assert Quaternion(*[2.0**-1060] * 4).norm() == 2.0**-1059
    assert Quaternion(1e-155, 0, 0, 0).inverse() == Quaternion(1e155, 0, 0, 0)
    assert Quaternion(1e-300, 0, 0, 0).inverse() == Quaternion(1.0 / 1e-300, 0, 0, 0)
    assert Quaternion(0, 0, 2.0**-1000, 0).inverse() == Quaternion(0, 0, -(2.0**1000), 0)
    tiny = Quaternion(1e-300, -2e-300, 3e-300, 4e-300)
    assert (tiny * tiny.inverse()).isclose(ONE, rel_tol=0, abs_tol=1e-15)
    rng = random.Random(12)
    for _ in range(200):
        p = random_quat(rng, span=1e-300)
        assert (p * p.inverse()).isclose(ONE, rel_tol=0, abs_tol=1e-12)
    # zero, and |p| so small that 1/|p| overflows (below about 5.6e-309)
    for p in (ZERO, Quaternion(3e-309, 0, 0, 0), Quaternion(0, 0, 0, -5e-324), Quaternion(*[1.5e-309] * 4)):
        with pytest.raises(ZeroDivisorError, match="too close to zero"):
            p.inverse()
    assert Quaternion(6e-309, 0, 0, 0).inverse().x == 1.0 / 6e-309


def test_norm_and_inverse_in_range_keep_the_plain_formula():
    rng = random.Random(13)
    for _ in range(500):
        span = 10.0 ** rng.randint(-150, 150)
        p = random_quat(rng, span)
        x, y, z, u = p.x, p.y, p.z, p.u
        n2 = x * x + y * y + z * z + u * u
        assert p.norm() == math.sqrt(n2)
        assert p.inverse() == Quaternion(x / n2, -y / n2, -z / n2, -u / n2)


# ---------------------------------------------------------------------------
# the value contract of the hand-written constructor
# ---------------------------------------------------------------------------


def test_quaternion_is_frozen():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    for name in "xyzu":
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, name, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.extra = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del q.x
    assert q == Quaternion(1.0, 2.0, 3.0, 4.0)


def test_keyword_construction_defaults_and_replace():
    assert Quaternion(u=4, y=2) == Quaternion(0.0, 2.0, 0.0, 4.0)
    assert Quaternion() == ZERO
    assert Quaternion(1.5) == Quaternion.from_real(1.5)
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    r = dataclasses.replace(q, z=-1)
    assert r == Quaternion(1.0, 2.0, -1.0, 4.0) and type(r.z) is float
    with pytest.raises(ValueError, match="non-finite quaternion component y=inf"):
        dataclasses.replace(q, y=math.inf)
    with pytest.raises(TypeError):
        Quaternion(1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(TypeError):
        Quaternion(w=1.0)
    assert [f.name for f in dataclasses.fields(Quaternion)] == ["x", "y", "z", "u"]
    assert dataclasses.astuple(q) == (1.0, 2.0, 3.0, 4.0)


def test_eq_hash_repr_are_by_value():
    q = Quaternion(1.0, -2.0, 0.5, 4.0)
    same = Quaternion(1, -2, 0.5, 4)
    assert q == same and hash(q) == hash(same) == hash((1.0, -2.0, 0.5, 4.0))
    assert q != Quaternion(1.0, -2.0, 0.5, 4.5)
    assert Quaternion(0.0, 0, 0, 0) == Quaternion(-0.0, 0, 0, 0)
    assert (q == (1.0, -2.0, 0.5, 4.0)) is False
    assert repr(q) == "Quaternion(x=1.0, y=-2.0, z=0.5, u=4.0)"
    assert len({q, same, Quaternion(1, -2, 0.5, 4.0)}) == 1


def test_pickle_and_copy_round_trips():
    q = Quaternion(1e-300, -0.0, 2.5, -1e300)
    for other in (
        pickle.loads(pickle.dumps(q)),
        pickle.loads(pickle.dumps(q, protocol=0)),
        copy.copy(q),
        copy.deepcopy(q),
    ):
        assert other == q and type(other) is Quaternion
        assert vars(other) == vars(q)
        assert math.copysign(1.0, other.y) == -1.0


def test_post_init_runs_once_per_construction(monkeypatch):
    calls = []
    original = Quaternion.__dict__["__post_init__"]

    def counted(q):
        calls.append(q)
        original(q)

    monkeypatch.setattr(Quaternion, "__post_init__", counted)
    p = Quaternion(1.0, 2.0, 3.0, 4.0)
    q = Quaternion(u=1, x=2)
    assert len(calls) == 2 and calls[0] is p and calls[1] is q
    for make in (
        lambda: Quaternion.from_cd(1 + 2j, 3 + 4j),
        lambda: Quaternion.from_real(2),
        lambda: dataclasses.replace(p, z=0.0),
        lambda: p + q,
        lambda: p - 1.0,
        lambda: p * 2.0,
        lambda: p * q,
        lambda: -p,
        lambda: p.conjugate(),
        lambda: p.inverse(),
        lambda: evaluate(parse("exp(p)*p + 1/p"), p),
    ):
        calls.clear()
        value = make()
        assert len(calls) == 1 and calls[0] is value
    calls.clear()
    p / q  # the inverse of q, then the product
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(ValueError):
        Quaternion(math.nan, 0, 0, 0)
    assert len(calls) == 1
