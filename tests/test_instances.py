import math

import numpy as np
import pytest

from colorperm.instances import (
    Instance,
    ParseError,
    PdpInstance,
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


def test_pdp_instance_asymmetric_diagonal():
    Wt = [[0.5, 1.0], [2.0, 0.25]]
    pdp = PdpInstance(2, 1, [0, 1], [3], Wt, [1.0, 1.0], [1.0, 1.0])
    assert pdp.Wtilde[0][0] == 0.5
    assert pdp.Wtilde[0][1] != pdp.Wtilde[1][0]
    assert pdp.d.tolist() == [0, 1]


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
