"""Tests for the validation helpers and exception hierarchy."""

import numpy as np
import pytest

from repro import errors, merge, parallel_merge
from repro.core.segmented_merge import segmented_parallel_merge
from repro.validation import (
    as_array,
    check_mergeable,
    check_positive,
    check_range,
    check_sorted,
    descends_at,
    first_disorder,
)


class TestAsArray:
    def test_passthrough_no_copy(self):
        x = np.array([1, 2])
        assert as_array(x) is x

    def test_list_coerced(self):
        out = as_array([1, 2, 3])
        assert isinstance(out, np.ndarray)

    def test_rejects_2d(self):
        with pytest.raises(errors.InputError, match="1-D"):
            as_array(np.zeros((2, 2)))

    def test_rejects_scalar(self):
        with pytest.raises(errors.InputError):
            as_array(np.float64(3.0))


class TestFirstDisorder:
    def test_sorted_returns_none(self):
        assert first_disorder(np.array([1, 2, 2, 3])) is None

    def test_finds_first_violation(self):
        assert first_disorder(np.array([1, 5, 3, 2])) == 1

    def test_short_arrays(self):
        assert first_disorder(np.array([])) is None
        assert first_disorder(np.array([7])) is None


class TestDescendsAt:
    """``descends_at`` is the one-pair form of ``first_disorder``: the
    two agree on every pair, with NaN last only for float dtypes."""

    NAT = np.datetime64("NaT", "D")
    DAY = np.datetime64("2024-01-01", "D")

    @pytest.mark.parametrize("arr", [
        np.array([1, 2, 0]),
        np.array([1.0, np.nan, -np.inf, 0.0, -0.0]),
        np.array([1 + 1j, np.nan + 0j, 0j]),
        np.array([DAY, NAT, DAY - 1]),
        np.array([1, "NaT", 0], dtype="m8[s]"),
        np.array([1.0, np.nan, 0.5], dtype=object),
        np.array([True, False]),
    ], ids=lambda arr: arr.dtype.str)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_agrees_with_first_disorder(self, arr):
        for x in arr:
            for y in arr:
                pair = np.array([x, y], dtype=arr.dtype)
                assert descends_at(pair, 0) == (
                    first_disorder(pair) is not None
                ), pair

    def test_nat_before_a_date_is_not_a_descent(self):
        """Only floats take the NaN-last rule; a NaT followed by a date
        passes ``check_sorted`` and so must pass ``descends_at``."""
        pair = np.array([self.NAT, self.DAY])
        assert first_disorder(pair) is None
        assert not descends_at(pair, 0)


class TestCheckSorted:
    def test_error_carries_name_and_index(self):
        with pytest.raises(errors.NotSortedError) as exc:
            check_sorted(np.array([1, 3, 2]), "B")
        assert exc.value.name == "B"
        assert exc.value.index == 1
        assert "B" in str(exc.value)

    def test_nan_before_a_number_is_a_descent(self):
        """NumPy's order puts NaN last, and every comparison with NaN is
        false, so a NaN followed by a number must still count."""
        with pytest.raises(errors.NotSortedError) as exc:
            check_sorted(np.array([1.0, np.nan, 0.5]))
        assert exc.value.index == 1
        with pytest.raises(errors.NotSortedError) as exc:
            check_sorted(np.array([np.nan, 2.0], dtype=np.float32))
        assert exc.value.index == 0

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_nan_last_order_passes(self, dtype):
        x = np.array([-np.inf, -0.0, 0.0, 1.0, np.inf, np.nan, np.nan],
                     dtype=dtype)
        assert np.array_equal(np.sort(x), x, equal_nan=True)
        check_sorted(x)
        check_sorted(np.array([np.nan, np.nan], dtype=dtype))


class TestCheckMergeable:
    def test_accepts_compatible(self):
        check_mergeable(np.array([1, 2]), np.array([1.5]))

    def test_rejects_text_numeric_mix(self):
        with pytest.raises(errors.DTypeMismatchError):
            check_mergeable(np.array([1]), np.array(["a"]), check_order=False)

    def test_rejects_lossy_integer_promotion(self):
        # uint64 with int64 promotes to float64, which rounds 2**62 + 1.
        a = np.array([2**63 + 1], np.uint64)
        b = np.array([2**62 + 1], np.int64)
        with pytest.raises(errors.DTypeMismatchError, match="uint64"):
            parallel_merge(a, b, 1, backend="serial")
        with pytest.raises(errors.DTypeMismatchError):
            merge(b, a)
        with pytest.raises(errors.DTypeMismatchError):
            segmented_parallel_merge(a, b, 2, L=4, backend="serial")

    @pytest.mark.parametrize("pair", [
        ("uint32", "int64"), ("int8", "uint16"), ("uint64", "uint8"),
        ("uint64", "float64"), ("int64", "float32"), ("bool", "uint64"),
    ])
    def test_exact_and_float_promotions_pass(self, pair):
        # Integers with floats keep NumPy's promotion.
        a, b = (np.array([1, 2], dtype=d) for d in pair)
        check_mergeable(a, b)

    def test_text_with_text_ok(self):
        check_mergeable(np.array(["a", "b"]), np.array(["c"]))

    def test_order_check_optional(self):
        check_mergeable(np.array([2, 1]), np.array([1]), check_order=False)


class TestCheckPositive:
    def test_accepts_numpy_integer(self):
        check_positive(np.int64(3), "p")

    def test_rejects_zero_and_negative(self):
        with pytest.raises(errors.InputError):
            check_positive(0, "p")
        with pytest.raises(errors.InputError):
            check_positive(-2, "p")

    def test_rejects_bool_and_float(self):
        with pytest.raises(errors.InputError):
            check_positive(True, "p")
        with pytest.raises(errors.InputError):
            check_positive(2.0, "p")


class TestCheckRange:
    def test_inclusive_bounds(self):
        check_range(1, "x", 1, 3)
        check_range(3, "x", 1, 3)

    def test_out_of_range(self):
        with pytest.raises(errors.InputError):
            check_range(4, "x", 1, 3)


class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for exc_type in (
            errors.InputError,
            errors.NotSortedError,
            errors.DTypeMismatchError,
            errors.PartitionError,
            errors.SimulationError,
            errors.MemoryConflictError,
            errors.DeadlockError,
            errors.BackendError,
            errors.ExperimentError,
            errors.UnknownExperimentError,
        ):
            assert issubclass(exc_type, errors.ReproError)

    def test_input_errors_are_value_errors(self):
        assert issubclass(errors.InputError, ValueError)
        assert issubclass(errors.NotSortedError, ValueError)

    def test_unknown_experiment_is_key_error(self):
        assert issubclass(errors.UnknownExperimentError, KeyError)

    def test_memory_conflict_payload(self):
        e = errors.MemoryConflictError("CREW write", ("S", 3), (2, 0))
        assert e.kind == "CREW write"
        assert e.address == ("S", 3)
        assert "[0, 2]" in str(e)

    def test_unknown_experiment_message(self):
        e = errors.UnknownExperimentError("NOPE", ("FIG5", "LB"))
        assert "NOPE" in str(e)
        assert "FIG5" in str(e)
