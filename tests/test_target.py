import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_dmrg.errors import InputError
from sphere_dmrg.target import (
    DenseState,
    load_target_file,
    named_state,
    resolve_target,
    state_from_counts,
)


class TestDenseState:
    def test_rejects_wrong_length(self):
        with pytest.raises(InputError):
            DenseState(n=2, d=2, amplitudes=np.ones(3))

    def test_rejects_non_unit_norm(self):
        with pytest.raises(InputError):
            DenseState(n=1, d=2, amplitudes=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError):
            DenseState(n=1, d=2, amplitudes=np.array([1.0, bad]))


class TestStateFromCounts:
    def test_uniform_two_outcome(self):
        state = state_from_counts({"0": 1, "1": 1}, d=2)
        np.testing.assert_allclose(
            state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15
        )

    def test_three_one_split(self):
        state = state_from_counts({"00": 3, "11": 1}, d=2)
        np.testing.assert_allclose(
            state.amplitudes, [math.sqrt(3) / 2, 0.0, 0.0, 0.5], atol=1e-15
        )

    def test_big_endian_index(self):
        # site 0 is the most significant digit
        assert np.flatnonzero(state_from_counts({"100": 1}, d=2).amplitudes).tolist() == [4]
        assert np.flatnonzero(state_from_counts({"012": 1}, d=3).amplitudes).tolist() == [5]

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            state_from_counts({}, d=2)

    def test_inconsistent_key_lengths(self):
        with pytest.raises(InputError, match="011"):
            state_from_counts({"00": 1, "011": 1}, d=2)

    def test_digit_out_of_range(self):
        with pytest.raises(InputError, match="2"):
            state_from_counts({"02": 1}, d=2)

    def test_nonpositive_count(self):
        with pytest.raises(InputError):
            state_from_counts({"0": 0, "1": 2}, d=2)

    @pytest.mark.parametrize("count", [pytest.param(10**308, id="int"), pytest.param(1e308, id="float")])
    def test_sum_past_float64_rejected(self, count):
        with pytest.raises(InputError, match="counts sum past the float64 range"):
            state_from_counts({"01": count, "10": count}, d=2)

    @given(
        counts=st.dictionaries(
            st.text(alphabet="01", min_size=3, max_size=3),
            st.integers(1, 50),
            min_size=1,
        ),
        k=st.integers(1, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaling_invariance(self, counts, k):
        a = state_from_counts(counts, d=2)
        b = state_from_counts({key: k * c for key, c in counts.items()}, d=2)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)

    def test_norm_invariant(self):
        state = state_from_counts({"010": 5, "111": 2, "001": 9}, d=2)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def per_key_amplitudes(counts, d):
    """The per-key loop the vectorized encoder replaced, as a reference."""
    n = len(next(iter(counts)))
    total = sum(counts.values())
    amps = np.zeros(d**n)
    for key, c in counts.items():
        idx = 0
        for ch in key:
            idx = idx * d + int(ch)
        amps[idx] = math.sqrt(c / total)
    return amps / np.linalg.norm(amps)


class TestCountsEncoder:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_per_key_loop(self, data):
        d = data.draw(st.sampled_from([2, 3, 10]))
        # d=10 stops at n=6 to keep the dense vector at 8 MB
        n = data.draw(st.integers(1, 8 if d < 10 else 6))
        counts = data.draw(st.dictionaries(
            st.text(alphabet="0123456789"[:d], min_size=n, max_size=n),
            st.integers(1, 10**9),
            min_size=1, max_size=60,
        ))
        state = state_from_counts(counts, d=d)
        assert state.amplitudes.tobytes() == per_key_amplitudes(counts, d).tobytes()

    def test_bitwise_equal_at_benchmark_shape(self):
        n = 18
        rng = np.random.default_rng(1000)
        keys, counts = np.unique(rng.integers(0, 2**n, 200_000), return_counts=True)
        doc = {format(int(k), f"0{n}b"): int(c) for k, c in zip(keys, counts)}
        state = state_from_counts(doc, d=2)
        assert state.amplitudes.tobytes() == per_key_amplitudes(doc, 2).tobytes()

    @pytest.mark.parametrize("counts, d", [
        ({"-": 1}, 1000),  # '-' wraps to 253, inside range(1000)
        ({"\u0661": 1}, 10),  # ARABIC-INDIC DIGIT ONE, which int() accepts
        ({"00": 1, "0a": 1}, 2),
        ({"00": 1, "01": math.nan}, 2),
        ({"00": 1, "01": math.inf}, 2),
        ({"00": 1, "01": "3"}, 2),
        ({"00": 1, "01": True}, 2),
        ({"": 1}, 2),
    ])
    def test_rejects(self, counts, d):
        with pytest.raises(InputError):
            state_from_counts(counts, d=d)

    def test_error_names_first_bad_digit(self):
        with pytest.raises(InputError, match="digit 'a' out of range for d=2 in key '0a'"):
            state_from_counts({"00": 1, "0a": 1, "b0": 1}, d=2)


class TestNamedState:
    def test_ghz(self):
        state = named_state("ghz", 2, 2)
        np.testing.assert_allclose(
            state.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15
        )

    def test_basis_index(self):
        state = named_state("basis:3", 2, 2)
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])

    def test_w_state(self):
        state = named_state("w", 3, 2)
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / math.sqrt(3)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_uniform(self):
        state = named_state("uniform", 3, 2)
        np.testing.assert_allclose(state.amplitudes, np.full(8, 8**-0.5), atol=1e-15)

    def test_random_seeded_deterministic(self):
        a = named_state("random", 3, 2, seed=4)
        b = named_state("random", 3, 2, seed=4)
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12

    def test_random_needs_seed(self):
        with pytest.raises(InputError):
            named_state("random", 3, 2)

    def test_ghz_needs_d2(self):
        with pytest.raises(InputError):
            named_state("ghz", 2, 3)

    def test_basis_out_of_range(self):
        with pytest.raises(InputError):
            named_state("basis:4", 2, 2)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            named_state("bell", 2, 2)

    @pytest.mark.parametrize("name", ["uniform", "ghz", "w", "basis:1"])
    def test_only_random_takes_a_seed(self, name):
        with pytest.raises(InputError, match=f"target {name!r} takes no seed"):
            named_state(name, 2, 2, seed=3)


class TestTargetFiles:
    def test_counts_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {"01": 1, "10": 1}}))
        state = load_target_file(str(path), n=2, d=2)
        np.testing.assert_allclose(
            state.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15
        )

    def test_amplitudes_file_normalized(self, tmp_path):
        amps = [0.6, 0.8, 0.0, 0.0]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 2, "d": 2, "amplitudes": amps}))
        state = load_target_file(str(path), n=2, d=2)
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-15)

    def test_amplitudes_far_from_unit_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 1, "d": 2, "amplitudes": [1.0, 1.0]}))
        with pytest.raises(InputError):
            load_target_file(str(path), n=1, d=2)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "samples"}))
        with pytest.raises(InputError):
            load_target_file(str(path), n=1, d=2)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 1, "d": 2, "amplitudes": [1.0, 0.0]}))
        with pytest.raises(InputError):
            load_target_file(str(path), n=2, d=2)

    def test_sizes_checked_before_use(self, tmp_path):
        # the file's own n would make d**n a 100-million-bit integer
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"kind": "amplitudes", "n": 100_000_000, "d": 2, "amplitudes": [1, 0]}
        ))
        with pytest.raises(InputError, match=r"run requires \(3, 2\)"):
            load_target_file(str(path), n=3, d=2)

    def test_counts_key_length_checked_before_the_vector(self, tmp_path):
        # 24-digit keys would make a 128 MiB vector for the file's own n
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {"0" * 24: 1}}))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"run requires \(3, 2\)"):
                load_target_file(str(path), n=3, d=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_amplitudes_normalized_bit_equal_to_division(self, tmp_path):
        values = np.random.default_rng(1).standard_normal(8)
        values = (values * (1 + 3e-7) / np.linalg.norm(values)).tolist()
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 3, "d": 2, "amplitudes": values}))
        amps = np.asarray(values)
        expected = amps / float(np.linalg.norm(amps))
        assert load_target_file(str(path), n=3, d=2).amplitudes.tobytes() == expected.tobytes()


class TestResolveTarget:
    def test_named(self):
        state = resolve_target("named:ghz", 2, 2)
        assert abs(state.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15

    def test_named_random_with_seed(self):
        a = resolve_target("named:random:7", 3, 2)
        b = named_state("random", 3, 2, seed=7)
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()

    def test_named_basis(self):
        state = resolve_target("named:basis:3", 2, 2)
        assert state.amplitudes[3] == 1.0

    def test_counts_spec(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {"00": 1}}))
        state = resolve_target(f"counts:{path}", 2, 2)
        assert state.amplitudes[0] == 1.0

    def test_unrecognized(self):
        with pytest.raises(InputError):
            resolve_target("ghz", 2, 2)

    def test_basis_index_not_an_integer(self):
        with pytest.raises(InputError, match="not an integer"):
            resolve_target("named:basis:x", 2, 2)

    @pytest.mark.parametrize("index", ["+3", " 3", "3 ", "٣", "²", "--3", ""])
    def test_basis_index_is_an_ascii_integer(self, index):
        with pytest.raises(InputError, match="not an integer"):
            resolve_target(f"named:basis:{index}", 2, 2)

    @pytest.mark.parametrize("seed", ["²", "+3", " 3", "٣", "--3"])
    def test_seed_is_an_ascii_integer(self, seed):
        with pytest.raises(InputError, match="is not an integer"):
            resolve_target(f"named:random:{seed}", 2, 2)

    @pytest.mark.parametrize("name", ["random", "basis"])
    def test_integer_past_the_conversion_limit(self, name):
        with pytest.raises(InputError, match="5000 digits is too long"):
            resolve_target(f"named:{name}:{'1' * 5000}", 2, 2)

    # one branch per character class, so that ":" and the non-ASCII digits
    # come up as often as a letter; short texts keep ":<digits>" tails common
    @settings(max_examples=300, deadline=None)
    @given(
        st.text(st.one_of(
            st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
            st.sampled_from("0123456789"),
            *map(st.just, ":-+ ²٣"),
        ), max_size=8),
        st.integers(1, 6),
        st.sampled_from([2, 3]),
    )
    def test_named_spec_loads_or_refuses(self, text, n, d):
        try:
            state = resolve_target(f"named:{text}", n, d)
        except InputError:
            return
        assert isinstance(state, DenseState)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            resolve_target(f"file:{tmp_path / 'absent.json'}", 2, 2)

    @pytest.mark.parametrize("text", [
        '{"kind": "counts", "d": 2, "counts": {"00": 1',  # truncated
        '{"kind": "counts", "counts": {"00": 1}}',  # no "d"
        '{"kind": "counts", "d": "2", "counts": {"00": 1}}',
        '{"kind": "counts", "d": 2, "counts": {"00": "3"}}',
        '{"kind": "counts", "d": 2, "counts": ["00"]}',
        '{"kind": "counts", "d": 2, "counts": {"0a": 1}}',
        '{"kind": "amplitudes", "n": 2, "d": 2, "amplitudes": ["x"]}',
        '{"kind": "amplitudes", "n": 2, "d": 2, "amplitudes": [true, false, false, false]}',
        pytest.param('{"kind": "amplitudes", "n": 2, "d": 2, "amplitudes": [1%s, 0, 0, 0]}'
                     % ("0" * 400), id="amplitude-past-float64"),
        pytest.param('{"kind": "counts", "d": 2, "counts": {"00": 1%s}}' % ("0" * 400),
                     id="count-past-float64"),
        '["counts"]',
        pytest.param('{"kind": "amplitudes", "n": 2, "d": 2, "amplitudes": [1e200, 1e200, 0, 0]}',
                     id="norm-past-float64"),
        pytest.param("[" * 200_000, id="nested-past-recursion-limit"),
    ])
    @pytest.mark.parametrize("prefix", ["file:", "counts:"])
    def test_malformed_file(self, tmp_path, prefix, text):
        path = tmp_path / "t.json"
        path.write_text(text)
        with pytest.raises(InputError):
            resolve_target(f"{prefix}{path}", 2, 2)

    def test_counts_spec_refuses_amplitudes_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 1, "d": 2, "amplitudes": [1.0, 0.0]}))
        assert resolve_target(f"file:{path}", 1, 2).amplitudes[0] == 1.0
        with pytest.raises(InputError, match="is not a counts target file"):
            resolve_target(f"counts:{path}", 1, 2)
