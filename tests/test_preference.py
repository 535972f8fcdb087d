import math
import re

import numpy as np
import pytest

from polyadnet.distributions import ROWS_PER_WRITE
from polyadnet.preference import PreferenceError, PreferenceFunction, read_preference, write_preference


def test_table_window_and_values():
    f = PreferenceFunction.from_table({1: 1.0, 2: 4.0, 3: 9.0})
    assert (f.g, f.M) == (1, 3)
    assert f(2) == 4.0
    assert f(0) == 0.0
    assert f(4) == 0.0


def test_table_gap_rejected():
    with pytest.raises(ValueError):
        PreferenceFunction.from_table({1: 1.0, 3: 2.0})


def test_table_takes_numpy_integer_degrees_as_ints():
    f = PreferenceFunction.from_table({np.int64(1): 1.0, np.uint8(2): 4.0})
    assert (f.g, f.M) == (1, 2) and type(f.g) is int and type(f.M) is int
    assert f(2) == 4.0


@pytest.mark.parametrize("k", [True, np.bool_(True), 1.0, np.float64(1.0), "1"])
def test_table_rejects_a_degree_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="is not an integer"):
        PreferenceFunction.from_table({k: 1.0})


@pytest.mark.parametrize("bad", [{}, {2: 0.0}, {2: -1.0}, {2: float("inf")}])
def test_table_bad_values_rejected(bad):
    with pytest.raises(ValueError):
        PreferenceFunction.from_table(bad)


def test_linear_is_identity_on_window():
    f = PreferenceFunction.linear()
    assert f(1) == 1.0
    assert f(17) == 17.0
    assert f(0) == 0.0
    assert math.isinf(f.M)


def test_linear_rejects_g_zero():
    # f(0)=0 is not a positive weight, so the window cannot start there
    with pytest.raises(ValueError):
        PreferenceFunction.linear(g=0)


@pytest.mark.parametrize(
    "g, M, message",
    [
        (-1, math.inf, "window start -1 must be a non-negative integer"),
        (1.0, math.inf, "window start 1.0 must be a non-negative integer"),
        (3, 2, "window end 2 must be an integer >= 3 or inf"),
        (1, 2.5, "window end 2.5 must be an integer >= 1 or inf"),
    ],
)
def test_bad_window_is_named(g, M, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PreferenceFunction.constant(1.0, g=g, M=M)


def test_constant_window():
    f = PreferenceFunction.constant(2.5, g=0, M=5)
    assert f(0) == 2.5
    assert f(5) == 2.5
    assert f(6) == 0.0


def test_rule_with_finite_window():
    f = PreferenceFunction.from_rule(lambda k: np.asarray(k, float) ** 2, g=1, M=10)
    assert f(3) == 9.0
    assert f(11) == 0.0


def test_rule_probe_rejects_nonpositive():
    with pytest.raises(ValueError):
        PreferenceFunction.from_rule(lambda k: 0.0 * np.asarray(k, float), g=1)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_constant_rejects_a_weight_that_is_not_finite_and_positive(value):
    message = f"preference rule gives {value} at degree 0, not a finite weight > 0"
    with pytest.raises(PreferenceError, match=f"^{re.escape(message)}$"):
        PreferenceFunction.constant(value)


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0])
def test_rule_probe_rejects_a_start_weight_that_is_not_finite_and_positive(weight):
    message = f"preference rule gives {weight} at degree 3, not a finite weight > 0"
    with pytest.raises(PreferenceError, match=f"^{re.escape(message)}$"):
        PreferenceFunction.from_rule(lambda k: np.full_like(np.asarray(k, float), weight), g=3)


def test_weight_array_names_the_first_degree_that_overflows():
    # k^200 is 1 at the window start and first overflows at k = 35
    f = PreferenceFunction.from_rule(lambda k: np.asarray(k, float) ** 200, g=1)
    message = r"^preference rule gives inf at degree 35, not a finite weight > 0$"
    assert f(34) < math.inf
    with pytest.raises(PreferenceError, match=message):
        f(35)
    with pytest.raises(PreferenceError, match=message):
        f.weight_array(100)


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -1.0])
def test_call_and_weight_array_raise_one_message(weight):
    # one check owns every weight inside the window: f(k) is weight_array(k, k)
    f = PreferenceFunction.from_rule(lambda k: np.where(k < 7, 1.0, weight), g=2)
    with pytest.raises(PreferenceError) as one:
        f(7)
    with pytest.raises(PreferenceError) as dense:
        f.weight_array(9)
    assert str(one.value) == str(dense.value)
    assert str(one.value) == f"preference rule gives {weight} at degree 7, not a finite weight > 0"


def test_weight_array_matches_call():
    f = PreferenceFunction.linear(g=2, M=6)
    w = f.weight_array(9)
    assert w.shape == (10,)
    assert [f(k) for k in range(10)] == list(w)


def _blocks(f, upto):
    step = ROWS_PER_WRITE
    return [f.weight_array(min(lo + step, upto + 1) - 1, lo) for lo in range(0, upto + 1, step)]


_TABLE = dict(enumerate(np.random.default_rng(5).uniform(0.1, 3.0, 12_000).tolist(), 3))


@pytest.mark.parametrize(
    "f",
    [
        PreferenceFunction.linear(),
        PreferenceFunction.constant(2.5, g=0),
        PreferenceFunction.from_rule(lambda k: np.asarray(k, float) ** 0.93, g=1),
        PreferenceFunction.from_table(_TABLE),
    ],
    ids=["linear", "constant", "power0.93", "table"],
)
def test_weight_array_blocks_concatenate_to_the_whole_array(f):
    # the solver's sweep evaluates f one block at a time; the blocks must
    # give the whole array's weights bit for bit, here over three blocks
    # (the table's window ends inside the second)
    blocks = _blocks(f, 20_000)
    assert [b.shape[0] for b in blocks] == [ROWS_PER_WRITE] * 2 + [20_001 - 2 * ROWS_PER_WRITE]
    assert np.concatenate(blocks).tobytes() == f.weight_array(20_000).tobytes()


def test_weight_array_names_the_same_bad_degree_whole_or_in_blocks():
    f = PreferenceFunction.from_rule(lambda k: np.where(k < 9000, k * 1.0, np.nan), g=1)
    message = r"^preference rule gives nan at degree 9000, not a finite weight > 0$"
    with pytest.raises(PreferenceError, match=message):
        f.weight_array(20_000)
    f.weight_array(ROWS_PER_WRITE - 1, 0)  # the first block lies below 9000
    with pytest.raises(PreferenceError, match=message):
        _blocks(f, 20_000)


@pytest.mark.parametrize("rule", [lambda k: float(k) + 0.5, lambda k: 2.0, lambda k: np.ones(3)])
def test_a_rule_must_give_one_weight_per_degree_of_an_array(rule):
    # a scalar rule is rejected when it is built, not evaluated degree by degree
    with pytest.raises(TypeError, match=r"^a preference rule maps a numpy integer array of degrees to one weight per degree"):
        PreferenceFunction.from_rule(rule, g=0, M=4)


def test_a_vectorized_scalar_rule_is_accepted():
    f = PreferenceFunction.from_rule(np.vectorize(lambda k: float(k) + 0.5), g=0, M=4)
    assert list(f.weight_array(4)) == [0.5, 1.5, 2.5, 3.5, 4.5]
    assert f(3) == 3.5


def test_table_and_rule_with_the_same_weights_agree(tmp_path):
    # one representation: a table is a rule indexing its weights by k - g
    rule = PreferenceFunction.from_rule(lambda k: np.asarray(k, float) ** 1.5, g=2, M=8)
    table = PreferenceFunction.from_table(dict(zip(range(2, 9), (np.arange(2.0, 9.0) ** 1.5).tolist())))
    assert list(table.weight_array(10)) == list(rule.weight_array(10))
    assert table.weights == rule.weights
    assert [table(k) for k in range(11)] == [rule(k) for k in range(11)]
    write_preference(table, tmp_path / "table.tsv")
    write_preference(rule, tmp_path / "rule.tsv")
    assert (tmp_path / "table.tsv").read_bytes() == (tmp_path / "rule.tsv").read_bytes()


def test_weights_property_table():
    tbl = {3: 1.0, 4: 2.0, 5: 0.25}
    f = PreferenceFunction.from_table(tbl)
    assert f.weights == tbl


def test_weights_property_unbounded_raises():
    f = PreferenceFunction.linear()
    with pytest.raises(ValueError):
        f.weights


def test_immutability():
    f = PreferenceFunction.linear()
    with pytest.raises(AttributeError):
        f.g = 5


def test_equality_on_tables():
    f1 = PreferenceFunction.from_table({1: 1.0, 2: 2.0})
    f2 = PreferenceFunction.from_table({2: 2.0, 1: 1.0})
    assert (f1.g, f1.M, f1.weights) == (f2.g, f2.M, f2.weights)


def test_write_read_round_trip(tmp_path):
    f = PreferenceFunction.from_table({2: 1.5, 3: 2.5, 4: 8.0})
    path = tmp_path / "pref.tsv"
    write_preference(f, path, {"note": "round trip"})
    back = read_preference(path)
    assert back.weights == f.weights
    assert (back.g, back.M) == (2, 4)


def test_write_unbounded_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_preference(PreferenceFunction.linear(), tmp_path / "x.tsv")


def test_read_window_mismatch(tmp_path):
    path = tmp_path / "pref.tsv"
    path.write_text("# g=1\n# M=3\n1\t1.0\n2\t2.0\n")
    with pytest.raises(ValueError):
        read_preference(path)


@pytest.mark.parametrize("line", ["# g=abc", "# M=2.0", "# g=-1"])
def test_read_bad_window_header_names_its_key(tmp_path, line):
    path = tmp_path / "pref.tsv"
    path.write_text(f"{line}\n1\t1.0\n2\t2.0\n")
    key, raw = line[2:].split("=")
    with pytest.raises(ValueError) as err:
        read_preference(path)
    assert str(err.value) == f"header {key}={raw!r} is not a non-negative integer"
