import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_dmrg.engine import TrainConfig, train
from sphere_dmrg.errors import InputError
from sphere_dmrg.mps import (
    MPS,
    dense_amplitudes,
    gauge_defect,
    gauge_to,
    left_defect,
    mps_from_json_dict,
    mps_to_dense,
    mps_to_json_dict,
    overlap_dense,
    random_mps,
    right_defect,
    shift_center,
)
from sphere_dmrg.target import named_state, resolve_target


# any JSON value: scalars of every JSON type (with integers past float64
# range) and small lists or objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.integers()
    | st.just(10**400) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def retyped(value):
    """``value`` under other JSON types: a float, a string, a bool, a list."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return [float(value), int(value), str(value), bool(value), [value]]
    return [str(value), [value]]


def product_state_mps(bits, d=2):
    """MPS for a computational basis product state, all bonds 1."""
    sites = []
    for b in bits:
        core = np.zeros((1, d, 1))
        core[0, b, 0] = 1.0
        sites.append(core)
    return MPS(sites=tuple(sites), center=0)


def ghz_mps():
    """Hand-built chi=2 GHZ chain on 3 sites, center at the last site."""
    a0 = np.zeros((1, 2, 2))
    a0[0, 0, 0] = a0[0, 1, 1] = 1.0
    a1 = np.zeros((2, 2, 2))
    a1[0, 0, 0] = a1[1, 1, 1] = 1.0
    a2 = np.zeros((2, 2, 1))
    a2[0, 0, 0] = a2[1, 1, 0] = 1.0 / math.sqrt(2.0)
    return MPS(sites=(a0, a1, a2), center=2)


class TestRandomMPS:
    def test_single_site_shape(self):
        state = random_mps(1, 2, 7, seed=0)
        assert state.sites[0].shape == (1, 2, 1)
        assert abs(np.linalg.norm(state.sites[0]) - 1.0) < 1e-12

    def test_bond_cap_formula(self):
        state = random_mps(4, 2, 8, seed=0)
        assert [c.shape[2] for c in state.sites[:-1]] == [2, 4, 2]
        state = random_mps(4, 2, 3, seed=0)
        assert [c.shape[2] for c in state.sites[:-1]] == [2, 3, 2]

    def test_deterministic(self):
        s1 = random_mps(4, 2, 3, seed=9)
        s2 = random_mps(4, 2, 3, seed=9)
        for a, b in zip(s1.sites, s2.sites):
            assert a.tobytes() == b.tobytes()

    def test_invariants_hold(self):
        state = random_mps(5, 2, 4, seed=2)
        assert state.center == 0
        assert gauge_defect(state) < 1e-10
        assert abs(np.linalg.norm(state.sites[0]) - 1.0) < 1e-10

    def test_size_guard(self):
        with pytest.raises(InputError):
            random_mps(31, 2, 2, seed=0)

    @pytest.mark.parametrize("n,d,chi", [(0, 2, 2), (3, 1, 2), (3, 2, 0)])
    def test_invalid_dims(self, n, d, chi):
        with pytest.raises(InputError):
            random_mps(n, d, chi, seed=0)


class TestShiftCenter:
    def test_product_state_exact(self):
        state = product_state_mps([0, 0])
        shifted = shift_center(state, "right")
        assert shifted.center == 1
        np.testing.assert_array_equal(
            mps_to_dense(shifted).amplitudes, [1.0, 0.0, 0.0, 0.0]
        )

    def test_rank_deficient_bond_shifts_exactly(self):
        # a product state carried on a bond of dimension 2
        a0 = np.zeros((1, 2, 2))
        a0[0, 0, 0] = 1.0
        a1 = np.eye(2).reshape(2, 2, 1)
        state = MPS(sites=(a0, a1), center=0)
        shifted = shift_center(state, "right")
        np.testing.assert_allclose(
            mps_to_dense(shifted).amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15
        )
        assert left_defect(shifted.sites[0]) < 1e-12
        back = shift_center(shifted, "left")
        assert right_defect(back.sites[1]) < 1e-12

    def test_dense_state_preserved(self):
        state = random_mps(4, 2, 3, seed=4)
        before = mps_to_dense(state).amplitudes
        state = shift_center(state, "right")
        after = mps_to_dense(state).amplitudes
        assert np.linalg.norm(before - after) <= 1e-12

    def test_left_isometry_after_right_shift(self):
        state = random_mps(4, 2, 3, seed=4)
        j = state.center
        shifted = shift_center(state, "right")
        assert left_defect(shifted.sites[j]) < 1e-10

    def test_right_isometry_after_left_shift(self):
        state = gauge_to(random_mps(4, 2, 3, seed=4), 2)
        shifted = shift_center(state, "left")
        assert right_defect(shifted.sites[2]) < 1e-10

    def test_boundary_errors(self):
        state = random_mps(3, 2, 2, seed=0)
        with pytest.raises(InputError):
            shift_center(state, "left")
        with pytest.raises(InputError):
            shift_center(gauge_to(state, 2), "right")

    def test_bad_direction(self):
        with pytest.raises(InputError):
            shift_center(random_mps(3, 2, 2, seed=0), "up")

    @given(seed=st.integers(0, 1000), moves=st.lists(st.booleans(), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_gauge_invariance_walk(self, seed, moves):
        state = random_mps(4, 2, 3, seed=seed)
        reference = mps_to_dense(state).amplitudes
        for go_right in moves:
            if go_right and state.center < state.n - 1:
                state = shift_center(state, "right")
            elif not go_right and state.center > 0:
                state = shift_center(state, "left")
            assert np.linalg.norm(mps_to_dense(state).amplitudes - reference) <= 1e-12 * (
                len(moves) or 1
            )
            assert gauge_defect(state) < 1e-10


class TestMpsToDense:
    def test_basis_product_state(self):
        state = product_state_mps([0, 0, 0])
        amps = mps_to_dense(state).amplitudes
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(amps, expected)

    def test_big_endian_convention(self):
        # |100> must land at index 4
        amps = mps_to_dense(product_state_mps([1, 0, 0])).amplitudes
        assert amps[4] == 1.0

    def test_ghz(self):
        amps = mps_to_dense(ghz_mps()).amplitudes
        expected = np.zeros(8)
        expected[0] = expected[7] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_random_unit_norm(self):
        for seed in range(5):
            amps = mps_to_dense(random_mps(5, 2, 4, seed=seed)).amplitudes
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("chi", [1, 2, 4])
    def test_amplitudes_are_products_of_core_slices(self, d, chi):
        """Amplitude of i0...i_{n-1} = sites[0][:, i0, :] @ ... @ sites[n-1][:, i_{n-1}, :]."""
        for n in range(1, 7):
            base = random_mps(n, d, chi, seed=100 * n + 10 * d + chi)
            for center in sorted({0, n - 1}):
                state = gauge_to(base, center)
                amps = dense_amplitudes(state)
                assert amps.shape == (d**n,)
                for index, digits in enumerate(itertools.product(range(d), repeat=n)):
                    block = np.eye(1)
                    for core, i in zip(state.sites, digits):
                        block = block @ core[:, i, :]
                    np.testing.assert_allclose(amps[index], block[0, 0], rtol=0, atol=1e-14)


class TestOverlapDense:
    def test_self_overlap(self):
        state = random_mps(4, 2, 3, seed=6)
        assert abs(overlap_dense(state, mps_to_dense(state)) - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        state = product_state_mps([0, 0, 0])
        target = mps_to_dense(product_state_mps([1, 1, 1]))
        assert overlap_dense(state, target) == 0.0

    def test_matches_dense_dot(self):
        state = random_mps(5, 2, 4, seed=8)
        target = named_state("random", 5, 2, seed=21)
        dense = mps_to_dense(state).amplitudes
        assert abs(overlap_dense(state, target) - dense @ target.amplitudes) < 1e-12

    def test_dimension_mismatch(self):
        state = random_mps(3, 2, 2, seed=0)
        with pytest.raises(InputError):
            overlap_dense(state, named_state("uniform", 4, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d, name", [
        (2, "ghz"), (2, "w"), (2, "basis"), (2, "random"), (3, "basis"), (3, "random"),
    ])
    def test_matches_left_to_right_dense_dot(self, n, d, name):
        spec = {"basis": f"named:basis:{d**n // 3}", "random": "named:random:5"}
        spec = spec.get(name, f"named:{name}")
        target = resolve_target(spec, n, d)
        # chi 4 is above the Schmidt rank of ghz, w and basis targets, so
        # the fitted state has rank-deficient bonds
        for chi in (1, 2, 4):
            config = TrainConfig(n=n, d=d, chi=chi, seed=2, target=spec, max_sweeps=3)
            fitted, _, _ = train(config)
            for state in (random_mps(n, d, chi, seed=3), gauge_to(fitted, n // 2)):
                expected = dense_amplitudes(state) @ target.amplitudes
                assert abs(overlap_dense(state, target) - expected) <= 1e-12, (chi, state.center)

    def test_no_target_sized_temporaries(self):
        state = random_mps(16, 2, 8, seed=4)
        target = named_state("random", 16, 2, seed=9)
        tracemalloc.start()
        try:
            overlap_dense(state, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < target.amplitudes.nbytes / 4


class TestGaugeTo:
    def test_isometry_suite_all_centers(self):
        base = random_mps(5, 2, 4, seed=13)
        reference = mps_to_dense(base).amplitudes
        for c in range(5):
            state = gauge_to(base, c)
            assert state.center == c
            for j in range(5):
                if j < c:
                    assert left_defect(state.sites[j]) < 1e-10
                elif j > c:
                    assert right_defect(state.sites[j]) < 1e-10
            assert abs(np.linalg.norm(state.sites[c]) - 1.0) < 1e-10
            assert np.linalg.norm(mps_to_dense(state).amplitudes - reference) < 1e-11


class TestSerialization:
    def test_round_trip_exact(self):
        state = gauge_to(random_mps(4, 2, 3, seed=17), 2)
        doc = json.loads(json.dumps(mps_to_json_dict(state)))
        back = mps_from_json_dict(doc)
        assert back.n == state.n and back.d == state.d and back.center == state.center
        for a, b in zip(state.sites, back.sites):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("center", 3),
        ("center", -1),
        ("d", 3),
        ("data", [0.0] * 3),
        ("data", [math.nan] * 4),
        ("data", [math.inf] * 4),
        ("data", ["a"] * 4),
        ("data", [True, False, False, True]),
        ("data", [10**400] * 4),
        ("n", None),
        ("n", 3.7),
        ("d", 2.0),
        ("center", False),
        ("shape", [1, 2.0, 2]),
    ])
    def test_rejects_malformed_document(self, field, value):
        doc = json.loads(json.dumps(mps_to_json_dict(random_mps(3, 2, 2, seed=1))))
        if field == "data":
            doc["tensors"][0] = {"shape": [1, 2, 2], "data": value}
        elif field == "shape":
            doc["tensors"][0]["shape"] = value
        elif value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(InputError):
            mps_from_json_dict(doc)

    @pytest.mark.parametrize("n, shapes, message", [
        (1, [(2, 2, 1)], "boundary bonds must have dimension 1"),
        (2, [(1, 2, 1), (2, 2, 1)], "bond mismatch between sites 0 and 1"),
        (2, [(1, 2, 1)], "expected 2 tensors, got 1"),
    ])
    def test_rejects_malformed_chain(self, n, shapes, message):
        doc = {"n": n, "d": 2, "center": 0, "tensors": [
            {"shape": list(shape), "data": [0.5] * math.prod(shape)} for shape in shapes
        ]}
        with pytest.raises(InputError, match=message):
            mps_from_json_dict(doc)

    @given(
        n=st.integers(1, 6), d=st.integers(2, 3), chi=st.integers(1, 4),
        seed=st.integers(0, 2**32), data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_loads_or_refuses_any_document(self, n, d, chi, seed, data):
        state = gauge_to(random_mps(n, d, chi, seed), data.draw(st.integers(0, n - 1)))
        doc = mps_to_json_dict(state)
        for back in (mps_from_json_dict(doc), mps_from_json_dict(json.loads(json.dumps(doc)))):
            assert (back.n, back.d, back.center) == (state.n, state.d, state.center)
            assert [c.shape for c in back.sites] == [c.shape for c in state.sites]
            assert [c.tobytes() for c in back.sites] == [c.tobytes() for c in state.sites]
        # replace one field, shape, data list or entry of a JSON copy, either
        # by any JSON value or by the same value under another JSON type
        doc = json.loads(json.dumps(doc))
        core = doc["tensors"][data.draw(st.integers(0, n - 1))]
        holder, key = data.draw(st.sampled_from([
            (doc, "n"), (doc, "d"), (doc, "center"), (doc, "tensors"),
            (core, "shape"), (core, "data"),
        ]))
        if data.draw(st.booleans()) and isinstance(holder[key], list) and holder[key]:
            holder, key = holder[key], data.draw(st.integers(0, len(holder[key]) - 1))
        holder[key] = data.draw(JSON_VALUES | st.sampled_from(retyped(holder[key])))
        try:
            loaded = mps_from_json_dict(doc)
        except InputError:
            return
        # only integer sizes and non-bool numbers load, and they load as written
        sizes = [doc["n"], doc["d"], doc["center"]]
        sizes += [v for core in doc["tensors"] for v in core["shape"]]
        assert all(type(v) is int for v in sizes), sizes
        assert not any(type(x) is bool for core in doc["tensors"] for x in core["data"])
        assert mps_to_json_dict(loaded) == doc

    def test_schema_fields(self):
        doc = mps_to_json_dict(random_mps(3, 2, 2, seed=1))
        assert set(doc) == {"n", "d", "center", "tensors"}
        assert all(set(t) == {"shape", "data"} for t in doc["tensors"])
        assert doc["tensors"][0]["shape"][0] == 1
