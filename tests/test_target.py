import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphere_dmrg import target as target_module
from sphere_dmrg.errors import InputError
from sphere_dmrg.mps import left_start
from sphere_dmrg.target import (
    SLAB_BYTES,
    DenseState,
    load_target_file,
    named_state,
    resolve_target,
    state_from_counts,
    unit_norm,
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


class TestUnitNorm:
    @pytest.mark.parametrize("size", [1, 7, 2**14, 2**16])
    def test_is_the_two_norm(self, size):
        x = np.random.default_rng(size).standard_normal(size)
        exact = math.sqrt(math.fsum(x * x))
        assert abs(unit_norm(x) - exact) <= 1e-13 * exact


class TestFoldProducts:
    """The two products through which the MPS fold reads a target."""

    @staticmethod
    def blocks(n, d, chi):
        """A target and the two dense blocks that meet it at the middle bond m = n // 2."""
        m = n // 2
        rng = np.random.default_rng(n * d + chi)
        target = named_state(f"random:{n}", n, d)
        # the left block is (d**m, chi), the right block (chi, d**(n-m))
        return target, rng.standard_normal((d**m, chi)), rng.standard_normal((chi, d ** (n - m)))

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (5, 2), (12, 2), (15, 2), (4, 3), (9, 3)])
    @pytest.mark.parametrize("chi", [1, 3, 8])
    def test_one_slab_is_the_single_product_bit_for_bit(self, n, d, chi):
        target, _, right = self.blocks(n, d, chi)
        assert target.amplitudes.nbytes <= SLAB_BYTES
        t = target.amplitudes
        expected = t.reshape(-1, right.shape[1]) @ right.T
        assert target.column_fold(right).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, d", [(n, 2) for n in range(16, 21)] + [(11, 3), (12, 3)])
    def test_many_slabs_agree_with_the_single_product(self, n, d):
        target, _, right = self.blocks(n, d, 8)
        t = target.amplitudes
        assert t.nbytes > SLAB_BYTES
        expected = t.reshape(-1, right.shape[1]) @ right.T
        got = target.column_fold(right)
        assert got.shape == expected.shape and got.flags.c_contiguous
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n, d", [(5, 3), (6, 3), (4, 5), (7, 2)])
    def test_every_slab_size_divides_the_rows(self, monkeypatch, n, d):
        # slab budgets from one amplitude up to the whole target: the slab
        # count stays a power of d, so the stack reshape never fails
        target, _, right = self.blocks(n, d, 2)
        expected = target.amplitudes.reshape(-1, right.shape[1]) @ right.T
        for budget in range(8, target.amplitudes.nbytes + 8, 8):
            monkeypatch.setattr(target_module, "SLAB_BYTES", budget)
            got = target.column_fold(right)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), budget

    def test_column_fold_builds_no_slab_stack(self):
        target, _, right = self.blocks(18, 2, 8)
        tracemalloc.start()
        try:
            out = target.column_fold(right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the product itself, plus bookkeeping
        assert peak < 2 * out.nbytes

    @pytest.mark.parametrize("n, d", [(2, 2), (8, 2), (18, 2), (20, 2), (7, 3), (12, 3)])
    def test_row_fold_is_the_single_product_bit_for_bit(self, n, d):
        target, left, _ = self.blocks(n, d, 8)
        expected = left.T @ target.amplitudes.reshape(left.shape[0], -1)
        assert target.row_fold(left).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_n1_start_is_the_target_as_one_row(self, d):
        # for n = 1 the fold starts with the row fold of the 1 x 1 block of ones
        target = named_state("random:1", 1, d)
        row = left_start(0, target)
        assert row.shape == (1, d)
        assert row.tobytes() == target.amplitudes.reshape(1, -1).tobytes()


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
    return amps / unit_norm(amps)


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
        a = named_state("random:4", 3, 2)
        b = named_state("random:4", 3, 2)
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12

    def test_random_needs_seed(self):
        with pytest.raises(InputError):
            named_state("random", 3, 2)

    @pytest.mark.parametrize("name, n, d, message", [
        ("ghz", 2, 3, "ghz target requires d=2"),
        ("w", 2, 3, "w target requires d=2"),
        ("uniform", 0, 2, "invalid sizes n=0, d=2"),
    ])
    def test_invalid_sizes(self, name, n, d, message):
        with pytest.raises(InputError, match=message):
            named_state(name, n, d)

    def test_basis_out_of_range(self):
        with pytest.raises(InputError):
            named_state("basis:4", 2, 2)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            named_state("bell", 2, 2)

    @pytest.mark.parametrize("name", ["uniform", "ghz", "w"])
    def test_only_random_takes_a_seed(self, name):
        with pytest.raises(InputError, match=f"target {name!r} takes no seed"):
            named_state(f"{name}:3", 2, 2)


class TestTargetFiles:
    def test_counts_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {"01": 1, "10": 1}}))
        state = load_target_file(str(path), n=2, d=2, kind="counts")
        np.testing.assert_allclose(
            state.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15
        )

    def test_amplitudes_file_normalized(self, tmp_path):
        amps = [0.6, 0.8, 0.0, 0.0]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 2, "d": 2, "amplitudes": amps}))
        state = load_target_file(str(path), n=2, d=2, kind="amplitudes")
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-15)

    def test_amplitudes_far_from_unit_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 1, "d": 2, "amplitudes": [1.0, 1.0]}))
        with pytest.raises(InputError):
            load_target_file(str(path), n=1, d=2, kind="amplitudes")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "samples"}))
        with pytest.raises(InputError, match="is not an amplitudes target file"):
            load_target_file(str(path), n=1, d=2, kind="amplitudes")

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "amplitudes", "n": 1, "d": 2, "amplitudes": [1.0, 0.0]}))
        with pytest.raises(InputError):
            load_target_file(str(path), n=2, d=2, kind="amplitudes")

    def test_sizes_checked_before_use(self, tmp_path):
        # the file's own n would make d**n a 100-million-bit integer
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"kind": "amplitudes", "n": 100_000_000, "d": 2, "amplitudes": [1, 0]}
        ))
        with pytest.raises(InputError, match=r"run requires \(3, 2\)"):
            load_target_file(str(path), n=3, d=2, kind="amplitudes")

    def test_counts_key_length_checked_before_the_vector(self, tmp_path):
        # 24-digit keys would make a 128 MiB vector for the file's own n
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {"0" * 24: 1}}))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"run requires \(3, 2\)"):
                load_target_file(str(path), n=3, d=2, kind="counts")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_amplitudes_guard_before_the_size_arithmetic(self, tmp_path):
        # a matching n of 10**8 would make d**n a 12.5 MB integer
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"kind": "amplitudes", "n": 10**8, "d": 2, "amplitudes": [1]}
        ))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="size guard"):
                load_target_file(str(path), n=10**8, d=2, kind="amplitudes")
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
        expected = amps / unit_norm(amps)
        state = load_target_file(str(path), n=3, d=2, kind="amplitudes")
        assert state.amplitudes.tobytes() == expected.tobytes()


JSON_KEYS = st.text("0123456789", max_size=5) | st.text(max_size=3)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),  # NaN and +-Infinity among them
    st.integers(-3, 5),
    st.integers(2**1024, 2**1100),  # past float64, both signs
    st.integers(-(2**1100), -(2**1024)),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=8,
)


# 80 = 3**4 - 1: ``index % d**n`` reaches every basis state of each (n, d) drawn below
INDEX = st.integers(0, 80)
COUNT_ENTRIES = st.lists(st.tuples(INDEX, st.integers(1, 9) | st.floats(0.5, 9)), min_size=1, max_size=5)


def digit_string(index, n, d):
    """The big-endian base-d digits of ``index % d**n``, n of them."""
    return "".join(str(index // d**(n - 1 - i) % d) for i in range(n))


@st.composite
def target_documents(draw):
    """``(n, d, doc)``: a target file for (n, d) with at most one fault, or any JSON value."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        entries = {digit_string(k, n, d): c for k, c in draw(COUNT_ENTRIES)}
        doc = {"kind": "counts", "d": d, "counts": entries}
    else:
        entries = [0] * d**n
        entries[draw(INDEX) % d**n] = 1
        doc = {"kind": "amplitudes", "n": n, "d": d, "amplitudes": entries}
    fault = draw(st.sampled_from(["none", "entry", "size", "kind", "payload", "missing", "document"]))
    if fault == "entry" and isinstance(entries, list):  # one amplitude swapped for any leaf
        entries[draw(INDEX) % d**n] = draw(JSON_LEAVES)
    elif fault == "entry":  # one count set to any leaf, under a run key or any key
        key = draw(INDEX | JSON_KEYS)
        entries[digit_string(key, n, d) if isinstance(key, int) else key] = draw(JSON_LEAVES)
    elif fault == "size":  # the right size as the wrong type, the wrong size, or any value
        field = draw(st.sampled_from(["n", "d"]))
        size = {"n": n, "d": d}[field]
        doc[field] = draw(st.sampled_from([float(size), str(size), True, size + 1]) | JSON_VALUES)
    elif fault == "kind":
        doc["kind"] = draw(st.sampled_from(["counts", "amplitudes", "other"]) | JSON_VALUES)
    elif fault == "payload":  # a plain list (for counts, its keys) or any value
        doc[doc["kind"]] = draw(st.just(list(entries)) | JSON_VALUES)
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "document":
        doc = draw(JSON_VALUES)
    return n, d, doc


class TestResolveTarget:
    def test_named(self):
        state = resolve_target("named:ghz", 2, 2)
        assert abs(state.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15

    def test_named_random_with_seed(self):
        a = resolve_target("named:random:7", 3, 2)
        b = named_state("random:7", 3, 2)
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

    # each faulty named: spec is refused with the one message for its fault
    @pytest.mark.parametrize("spec, n, fragment", [
        ("bogus:3", 2, "unknown target name 'bogus'"),
        ("Random:3", 2, "unknown target name 'Random'"),
        ("ghz:x", 2, "target 'ghz' takes no seed"),
        ("ghz:3", 2, "target 'ghz' takes no seed"),
        ("random", 2, "requires a seed"),
        ("random:x", 2, "is not an integer"),
        ("random:-3", 2, "must be >= 0"),
        ("basis:1:3", 2, "is not an integer"),
        ("basis:8", 3, "out of range"),
    ])
    def test_named_spec_fault_message(self, spec, n, fragment):
        with pytest.raises(InputError, match=re.escape(fragment)):
            resolve_target(f"named:{spec}", n, 2)

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

    def test_file_spec_refuses_counts_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {"0": 1}}))
        assert resolve_target(f"counts:{path}", 1, 2).amplitudes[0] == 1.0
        with pytest.raises(InputError, match="is not an amplitudes target file"):
            resolve_target(f"file:{path}", 1, 2)

    # every example rewrites the same file
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=target_documents())
    def test_file_spec_loads_or_refuses(self, tmp_path, case):
        """Any JSON document given as file: or counts: loads as an (n, d) state or is refused.

        Only an amplitudes document loads through file:, and only a counts
        document through counts:.
        """
        n, d, doc = case
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc, allow_nan=True))
        for prefix, kind in (("file:", "amplitudes"), ("counts:", "counts")):
            try:
                state = resolve_target(f"{prefix}{path}", n, d)
            except InputError:
                continue
            assert isinstance(state, DenseState)
            assert (state.n, state.d) == (n, d)
            assert doc["kind"] == kind
