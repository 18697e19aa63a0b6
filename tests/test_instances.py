import math
import re

import numpy as np
import pytest

from colorperm.cli import main
from colorperm.instances import (
    Instance,
    ParseError,
    build_matrices,
    from_matrices,
    load_instance,
    parse_vrp,
    qubit_counts,
)

MINIMAL_VRP = """\
NAME : mini
DIMENSION : 4
CAPACITY : 3
NODE_COORD_SECTION
1 0 0
2 1 0
3 0 1
4 1 1
DEMAND_SECTION
1 0
2 1
3 1
4 1
DEPOT_SECTION
1
-1
EOF
"""


def test_build_matrices_345_triangle():
    W, dep_to, to_dep = build_matrices([(0.0, 0.0)], (3.0, 4.0))
    assert dep_to.tolist() == [5.0]
    assert to_dep.tolist() == [5.0]
    assert W.shape == (1, 1) and W[0, 0] == 0.0


def test_build_matrices_unit_edge():
    W, _, _ = build_matrices([(0, 0), (1, 0)], (0, 5))
    assert W[0, 1] == 1.0 and W[1, 0] == 1.0


def test_build_matrices_nearest_integer():
    # sqrt(2) = 1.414... rounds down to 1 under floor(x + 0.5)
    _, dep_to, _ = build_matrices([(0, 0)], (1, 1), rounding_mode="nearest-integer")
    assert dep_to.tolist() == [1.0]


def test_build_matrices_rejects_unknown_mode():
    with pytest.raises(ValueError):
        build_matrices([(0, 0)], (1, 1), rounding_mode="ceil")


def test_qubit_counts_table_rows():
    assert qubit_counts(4, 2) == (32, 12)
    assert qubit_counts(5, 2) == (50, 20)
    assert qubit_counts(1, 1) == (1, 0)


def test_qubit_counts_compression():
    for n in range(1, 12):
        for K in range(1, 5):
            if n * K < 2:
                continue
            onehot, binary = qubit_counts(n, K)
            assert onehot >= binary
            assert onehot == K * n * n
            assert binary == n * math.ceil(math.log2(n * K))


def test_parse_vrp_minimal():
    inst = parse_vrp(MINIMAL_VRP)
    assert inst.n == 3
    assert inst.K == 2
    assert inst.Q.tolist() == [3, 3]
    assert inst.d.tolist() == [1, 1, 1]
    assert inst.name == "mini"
    # node 1 at (0,0) is the depot; customer 0 is node 2 at (1,0)
    assert inst.dep_to[0] == pytest.approx(1.0)
    assert np.allclose(inst.W, inst.W.T)
    assert np.allclose(inst.dep_to, inst.to_dep)


def test_parse_vrp_missing_dimension():
    text = MINIMAL_VRP.replace("DIMENSION : 4\n", "")
    with pytest.raises(ParseError):
        parse_vrp(text)


def test_parse_vrp_missing_capacity():
    text = MINIMAL_VRP.replace("CAPACITY : 3\n", "")
    with pytest.raises(ParseError):
        parse_vrp(text)


def test_parse_vrp_duplicate_node():
    text = MINIMAL_VRP.replace("3 0 1", "2 0 1")
    with pytest.raises(ParseError):
        parse_vrp(text)


def test_parse_vrp_nonnumeric_demand():
    text = MINIMAL_VRP.replace("2 1\n3 1", "2 x\n3 1")
    with pytest.raises(ParseError):
        parse_vrp(text)


# one edit of MINIMAL_VRP per ParseError of parse_vrp: (old, new, error, message)
VRP_ERRORS = {
    "header": ("NAME : mini", "NAME mini", ParseError, "malformed header line: 'NAME mini'"),
    "coordinate-fields": ("2 1 0\n", "2 1 0 5\n", ParseError, "malformed coordinate line: '2 1 0 5'"),
    "coordinate-number": ("2 1 0\n", "2 a 0\n", ParseError, "nonnumeric coordinate: '2 a 0'"),
    "node-repeat": ("3 0 1", "2 0 1", ParseError, "duplicate node id 2"),
    "demand-fields": ("2 1\n3 1", "2 1 1\n3 1", ParseError, "malformed demand line: '2 1 1'"),
    "demand-number": ("2 1\n3 1", "2 x\n3 1", ParseError, "nonnumeric demand: '2 x'"),
    "demand-repeat": ("2 1\n3 1", "2 1\n2 1", ParseError, "duplicate demand for node 2"),
    "depot-line": ("DEPOT_SECTION\n1\n", "DEPOT_SECTION\nx\n", ParseError, "malformed depot line: 'x'"),
    "section": ("EOF", "EDGE_WEIGHT_SECTION\n0 1\nEOF", ParseError, "unsupported section EDGE_WEIGHT_SECTION"),
    "no-dimension": ("DIMENSION : 4\n", "", ParseError, "missing DIMENSION"),
    "no-capacity": ("CAPACITY : 3\n", "", ParseError, "missing CAPACITY"),
    "header-number": ("DIMENSION : 4", "DIMENSION : four", ParseError, "DIMENSION and CAPACITY must be integers"),
    "no-customer": ("DIMENSION : 4", "DIMENSION : 1", ParseError, "need at least one customer besides the depot"),
    "depot-node": ("DEPOT_SECTION\n1\n", "DEPOT_SECTION\n2\n", ParseError, "node 1 must be the depot"),
    "node-gap": ("DIMENSION : 4", "DIMENSION : 5", ParseError, "DIMENSION is 5 but node 5 has no coordinates"),
    "negative-demand": ("4 1\n", "4 -1\n", ValueError, "demands must be nonnegative"),
}


@pytest.mark.parametrize("old, new, error, message", VRP_ERRORS.values(), ids=VRP_ERRORS.keys())
def test_parse_vrp_error_messages(old, new, error, message):
    assert MINIMAL_VRP.count(old) == 1
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        parse_vrp(MINIMAL_VRP.replace(old, new))
    assert type(err.value) is error


def test_vrp_error_exits_with_one_error_line(tmp_path, capsys):
    old, new, _, message = VRP_ERRORS["demand-repeat"]
    path = tmp_path / "bad.vrp"
    path.write_text(MINIMAL_VRP.replace(old, new))
    assert main(["brute", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("demands", [[2**52, 2**52], [2**62, 2**62]], ids=["at-2**53", "past-int64"])
def test_total_demand_of_2_to_the_53_exits_with_one_error_line(tmp_path, capsys, demands):
    # loads at or above 2**53 no longer add exactly, so the energies would not be exact
    path = tmp_path / "heavy.json"
    path.write_text(f'{{"W": [[0, 2], [2, 0]], "d": {demands}, "Q": [3]}}')
    assert main(["brute", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == f"error: total demand must be below 2**53, not {sum(demands)}\n"
    assert from_matrices({"W": [[0, 2], [2, 0]], "d": [2**52, 2**52 - 1], "Q": [3]}).d.sum() == 2**53 - 1


def test_from_matrices_example_a():
    record = {
        "W": [[0, 30.41, 36.40], [30.41, 0, 6.08], [36.40, 6.08, 0]],
        "d": [1, 1, 1],
        "Q": [3],
        "dep_to": [25.55, 26.02, 30.02],
    }
    inst = from_matrices(record, K=2)
    assert inst.W[0][1] == 30.41
    assert inst.dep_to.tolist() == [25.55, 26.02, 30.02]
    assert inst.to_dep.tolist() == [25.55, 26.02, 30.02]
    assert inst.Q.tolist() == [3, 3]


def test_from_matrices_requires_w():
    with pytest.raises(ParseError):
        from_matrices({"d": [1], "Q": [1]})


def test_from_matrices_refuses_a_list():
    with pytest.raises(ParseError):
        from_matrices(["W", "d", "Q"])


def test_from_matrices_refuses_a_scalar_w():
    with pytest.raises(ParseError):
        from_matrices({"W": 5, "d": [1], "Q": [3]})


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance("bad", 2, 1, [-1, 0], [3], [[0, 1], [1, 0]], [0, 0], [0, 0])
    with pytest.raises(ValueError):
        Instance("bad", 2, 1, [1, 1], [-3], [[0, 1], [1, 0]], [0, 0], [0, 0])
    with pytest.raises(ValueError):
        Instance("bad", 2, 1, [1, 1], [3], [[1, 1], [1, 0]], [0, 0], [0, 0])
    # zero capacity is allowed: it only makes every nonzero load infeasible
    inst = Instance("zq", 2, 1, [1, 1], [0], [[0, 1], [1, 0]], [0, 0], [0, 0])
    assert inst.Q.tolist() == [0]


def test_instance_arrays_readonly(exA):
    with pytest.raises(ValueError):
        exA.W[0, 1] = 99.0


def test_per_vehicle_depot_legs():
    legs = [[1.0, 2.0], [3.0, 4.0]]
    inst = Instance("pv", 2, 2, [1, 1], [2, 2], [[0, 1], [1, 0]], legs, legs)
    assert inst.dep_out(0, 1) == 2.0
    assert inst.dep_in(1, 0) == 3.0


def test_uniform_capacity(exA):
    assert exA.uniform_capacity() == 3
    mixed = Instance("mx", 2, 2, [1, 1], [2, 3], [[0, 1], [1, 0]], [0, 0], [0, 0])
    assert mixed.uniform_capacity() is None


def test_instance_keeps_an_asymmetric_matrix_and_zero_demands():
    inst = Instance("asym", 2, 1, [0, 1], [3], [[0.0, 1.0], [2.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
    assert inst.W[0][1] != inst.W[1][0]
    assert inst.d.tolist() == [0, 1]


def test_load_instance_checks_the_rounding_mode_of_both_formats(tmp_path):
    vrp, record = tmp_path / "mini.vrp", tmp_path / "mat.json"
    vrp.write_text(MINIMAL_VRP)
    record.write_text('{"W": [[0, 1.5], [1.5, 0]], "d": [1, 1], "Q": [2]}')
    for path in (vrp, record):
        with pytest.raises(ValueError, match="^unknown rounding mode 'ceil'$"):
            load_instance(path, rounding_mode="ceil")
    # the mode rounds a .vrp file's distances (sqrt 2 to 1) and leaves a JSON record's matrices as given
    assert load_instance(vrp, rounding_mode="nearest-integer").W.max() == 1.0
    assert load_instance(record, rounding_mode="nearest-integer").W[0, 1] == 1.5


def test_load_instance_k_from_filename(tmp_path):
    f = tmp_path / "toy-k3.vrp"
    f.write_text(MINIMAL_VRP)
    inst = load_instance(f)
    assert inst.K == 3
    assert load_instance(f, K=1).K == 1


def test_load_instance_json(tmp_path):
    f = tmp_path / "mat.json"
    f.write_text('{"W": [[0, 2], [2, 0]], "d": [1, 1], "Q": [2], "dep_to": [1, 1]}')
    inst = load_instance(f)
    assert inst.n == 2 and inst.K == 2
    assert inst.name == "mat"


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_instance(tmp_path / "nope.vrp")


@pytest.mark.parametrize(
    "field, value",
    [("d", [1.5, 1]), ("Q", [2.5]), ("d", [None, 1]), ("d", {"a": 1}), ("Q", [1e30]), ("d", [True, 1])],
    ids=["fractional-demand", "fractional-capacity", "null", "object", "overflow", "boolean"],
)
def test_json_demands_and_capacities_must_be_integers(field, value):
    record = {"W": [[0, 2], [2, 0]], "d": [1, 1], "Q": [3]}
    record[field] = value
    with pytest.raises(ParseError):
        from_matrices(record)


def test_json_integral_floats_are_integers():
    inst = from_matrices({"W": [[0, 2], [2, 0]], "d": [1.0, 2], "Q": 3.0})
    assert inst.d.tolist() == [1, 2] and inst.Q.tolist() == [3]
    assert inst.d.dtype == np.int64


@pytest.mark.parametrize(
    "old, new",
    [("4 1\n", "4 1.5\n"), ("CAPACITY : 3", "CAPACITY : 2.5"),
     ("4 1\n", "4 12345678901234567890\n"), ("CAPACITY : 3", "CAPACITY : 12345678901234567890")],
    ids=["fractional-demand", "fractional-capacity", "overflow-demand", "overflow-capacity"],
)
def test_vrp_demands_and_capacities_must_be_integers(old, new):
    assert old in MINIMAL_VRP
    with pytest.raises(ParseError):
        parse_vrp(MINIMAL_VRP.replace(old, new))


def test_missing_distance_is_refused():
    with pytest.raises(ValueError, match="nonnegative numbers"):
        from_matrices({"W": [[0, None], [None, 0]], "d": [1, 1], "Q": [3]})


@pytest.mark.parametrize(
    "field, value",
    [("W", [[0, math.inf], [1, 0]]), ("W", [[0, math.nan], [1, 0]]),
     ("dep_to", [math.inf, 1]), ("to_dep", [1, math.inf])],
    ids=["inf-distance", "nan-distance", "inf-start-leg", "inf-close-leg"],
)
def test_json_non_finite_distances_are_refused(field, value):
    record = {"W": [[0, 1], [1, 0]], "d": [1, 1], "Q": [3], field: value}
    with pytest.raises(ValueError, match="finite nonnegative"):
        from_matrices(record)


@pytest.mark.parametrize("x", ["1e200", "inf"], ids=["overflow", "infinite"])
def test_vrp_non_finite_distances_are_refused(x):
    # 1e200 squared overflows to inf, and inf - inf is nan
    with pytest.raises(ValueError, match="finite nonnegative"):
        parse_vrp(MINIMAL_VRP.replace("2 1 0\n", f"2 {x} 0\n"))


@pytest.mark.parametrize(
    "Wt, legs",
    [([[0, math.inf], [1, 0]], [1, 1]), ([[0, 1], [1, 0]], [math.inf, 1])],
    ids=["inf-dead-mile", "inf-leg"],
)
def test_pdp_non_finite_costs_are_refused(Wt, legs):
    # a pickup-and-delivery problem enters as the Instance of its dead miles and legs
    with pytest.raises(ValueError, match="finite nonnegative"):
        Instance("pdp", 2, 1, [1, 1], [3], Wt, legs, [1, 1])


GOOD_FIELDS = {"K": 1, "d": [1, 1], "Q": [3], "W": [[0, 1], [1, 0]], "dep_to": [0, 0], "to_dep": [0, 0]}


def _record(cls, **fields):
    """A two-customer record of `cls`."""
    f = {**GOOD_FIELDS, **fields}
    return cls("bad", 2, f["K"], f["d"], f["Q"], f["W"], f["dep_to"], f["to_dep"])


@pytest.mark.parametrize("cls", [Instance])
@pytest.mark.parametrize(
    "fields, message",
    [({"K": 0}, "need n >= 1 and K >= 1"),
     ({"d": [-1, 0]}, "demands must be nonnegative"),
     ({"Q": [-3]}, "capacities must be nonnegative"),
     ({"d": [1.5, 1]}, "demands must be integers, not 1.5"),
     ({"Q": [2.5]}, "capacities must be integers, not 2.5"),
     ({"d": [1, 1, 1]}, "demand vector must have length n"),
     ({"Q": [3, 3]}, "capacity vector must have length K"),
     ({"W": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}, "W must be n x n"),
     ({"dep_to": [0, 0, 0]}, "dep_to must have shape (n,) or (n, K)"),
     ({"to_dep": [[0, 0], [0, 0]]}, "to_dep must have shape (n,) or (n, K)"),
     ({"W": [[0, math.inf], [1, 0]]}, "distances must be finite nonnegative numbers"),
     ({"W": [[0, math.nan], [1, 0]]}, "distances must be finite nonnegative numbers"),
     ({"W": [[0, -1], [1, 0]]}, "distances must be finite nonnegative numbers"),
     ({"W": [[0.5, 1], [1, 0]]}, "W must have a zero diagonal"),
     ({"dep_to": [math.inf, 0]}, "depot legs must be finite nonnegative numbers"),
     ({"to_dep": [0, math.nan]}, "depot legs must be finite nonnegative numbers")],
    ids=["K-0", "negative-demand", "negative-capacity", "fractional-demand", "fractional-capacity",
         "demand-shape", "capacity-shape", "matrix-shape", "start-leg-shape", "close-leg-shape",
         "inf-matrix", "nan-matrix", "negative-matrix", "nonzero-diagonal", "inf-start-leg", "nan-close-leg"],
)
def test_both_records_refuse_the_same_bad_fields(cls, fields, message):
    with pytest.raises(ValueError) as err:
        _record(cls, **fields)
    assert str(err.value) == message


@pytest.mark.parametrize("K", ["2", 2.5, True], ids=["string", "fraction", "bool"])
def test_from_matrices_refuses_a_non_integer_fleet_size(K):
    record = {"W": [[0, 2], [2, 0]], "d": [1, 1], "Q": [3], "K": K}
    with pytest.raises(ParseError, match="fleet size K must be an integer"):
        from_matrices(record)
    # an explicit K overrides the record's, which is then not read
    assert from_matrices(record, K=3).K == 3
    assert from_matrices({**record, "K": 3}).K == 3
