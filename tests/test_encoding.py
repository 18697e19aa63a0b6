import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorperm.encoding import (
    REGISTERS,
    CodecError,
    ColoredAssignment,
    EncodingParams,
    MultiHotError,
    NotOnceEachError,
    PaddingLeakError,
    ZeroHotError,
    assignment_label,
    binary_to_label,
    compress,
    decode_bitstring,
    decompress,
    digits_label,
    encode_assignment,
    grouped,
    label_assignment,
    label_bitstrings,
    label_digits,
    label_to_binary,
    label_to_onehot,
    permutation_view,
    symbol_index,
    symbol_unindex,
)
from tests.conftest import EXA_ONEHOT, EXA_PAIRS_1B, EXB_ONEHOT, EXB_PAIRS_1B


def all_colored_permutations(n, K):
    for perm in itertools.permutations(range(n)):
        for ks in itertools.product(range(K), repeat=n):
            yield ColoredAssignment(tuple(zip(perm, ks)), K)


def test_symbol_index_values():
    assert symbol_index(0, 0, 3) == 0
    assert symbol_index(2, 1, 3) == 5


def test_symbol_index_range_checks():
    with pytest.raises(ValueError):
        symbol_index(3, 0, 3)
    with pytest.raises(ValueError):
        symbol_index(0, 2, 3, K=2)


def test_symbol_round_trip():
    n, K = 3, 2
    for s in range(n * K):
        i, k = symbol_unindex(s, n)
        assert symbol_index(i, k, n, K) == s


def test_encode_example_a(params3):
    a = ColoredAssignment.from_pairs(EXA_PAIRS_1B, 2, one_based=True)
    assert encode_assignment(a, params3) == EXA_ONEHOT


def test_encode_example_b(params4):
    a = ColoredAssignment.from_pairs(EXB_PAIRS_1B, 2, one_based=True)
    assert encode_assignment(a, params4) == EXB_ONEHOT


def test_encode_degenerate():
    a = ColoredAssignment.from_pairs([(1, 1)], 1, one_based=True)
    assert encode_assignment(a, EncodingParams(1, 1)) == "1"


def test_decode_example_a(params3):
    a = decode_bitstring(EXA_ONEHOT, params3)
    assert a.one_based() == tuple(EXA_PAIRS_1B)


def test_decode_all_zero(params3):
    with pytest.raises(ZeroHotError) as err:
        decode_bitstring("0" * 18, params3)
    assert err.value.block == 0


def test_decode_multi_hot(params3):
    bits = "110000" + "000010" + "000001"
    with pytest.raises(MultiHotError) as err:
        decode_bitstring(bits, params3)
    assert err.value.block == 0


def test_decode_length_check(params3):
    with pytest.raises(CodecError):
        decode_bitstring("1010", params3)


def test_round_trip_all_colored_permutations(params3):
    seen = set()
    for a in all_colored_permutations(3, 2):
        b = encode_assignment(a, params3)
        seen.add(b)
        assert decode_bitstring(b, params3) == a
    assert len(seen) == 48  # 3! * 2^3


def test_count_colored_permutations_n4(params4):
    seen = {
        encode_assignment(a, params4) for a in all_colored_permutations(4, 2)
    }
    assert len(seen) == 384  # 4! * 2^4


def test_permutation_view_example_a(params3):
    a = decode_bitstring(EXA_ONEHOT, params3)
    P, slices = permutation_view(a)
    assert np.array_equal(P, np.eye(3, dtype=int))
    # printed slice matrices are positions x customers; ours are
    # customers x positions, so compare against the transpose
    M1 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    M2 = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(slices[0], M1.T)
    assert np.array_equal(slices[1], M2.T)


def test_permutation_view_example_b(params4):
    a = decode_bitstring(EXB_ONEHOT, params4)
    P, slices = permutation_view(a)
    expected = np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
        ]
    )
    assert np.array_equal(P, expected)
    assert np.array_equal(slices[0] + slices[1], P)


def test_permutation_view_single():
    a = ColoredAssignment(((0, 0),), 1)
    P, slices = permutation_view(a)
    assert np.array_equal(P, [[1]])


def test_permutation_view_rejects_repeat():
    a = ColoredAssignment(((0, 0), (0, 1), (2, 0)), 2)
    with pytest.raises(NotOnceEachError) as err:
        permutation_view(a)
    assert err.value.customer == 0 and err.value.count == 2


def test_permutation_properties_exhaustive(params3):
    for a in all_colored_permutations(3, 2):
        P, slices = permutation_view(a)
        assert (P.sum(axis=0) == 1).all()
        assert (P.sum(axis=1) == 1).all()
        assert np.array_equal(sum(slices), P)
        # disjoint supports
        assert (slices[0] * slices[1] == 0).all()


def test_compress_example_a(params3):
    assert compress(EXA_ONEHOT, params3) == "000100101"


def test_compress_multi_hot(params3):
    with pytest.raises(MultiHotError):
        compress("110000" + "000010" + "000001", params3)


def test_compress_degenerate():
    assert compress("1", EncodingParams(1, 1)) == ""


def test_decompress_example_a(params3):
    assert decompress("000100101", params3) == EXA_ONEHOT


def test_decompress_padding_leak(params3):
    with pytest.raises(PaddingLeakError) as err:
        decompress("110" + "100" + "101", params3)
    assert err.value.block == 0 and err.value.word == 6


def test_compress_round_trip_exhaustive(params3):
    for a in all_colored_permutations(3, 2):
        b = encode_assignment(a, params3)
        assert decompress(compress(b, params3), params3) == b


@given(st.integers(min_value=0, max_value=6**3 - 1))
def test_onehot_label_round_trip(z):
    p = EncodingParams(3, 2)
    assert assignment_label(decode_bitstring(label_to_onehot(z, p), p), p) == z


@given(st.integers(min_value=0, max_value=2**12 - 1))
@settings(max_examples=60)
def test_binary_label_round_trip(z):
    p = EncodingParams(4, 2)
    assert binary_to_label(label_to_binary(z, p), p) == z


@st.composite
def register_labels(draw):
    p = EncodingParams(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    register = draw(st.sampled_from(REGISTERS))
    return p, register, draw(st.lists(st.integers(0, p.dim("onehot") - 1), max_size=12))


@given(register_labels())
@example((EncodingParams(1, 1), "binary", [0, 0]))
@example((EncodingParams(3, 2), "onehot", []))
@settings(max_examples=150, deadline=None)
def test_label_bitstrings_render_each_label_as_the_scalar_renderers(case):
    # one-hot labels, rendered as one-hot blocks or as the binary words of
    # their binary labels (the same digits in radix 2^q); at n = K = 1 the
    # binary words have q = 0 bits: every string is empty
    p, register, labels = case
    if register == "onehot":
        want = [label_to_onehot(z, p) for z in labels]
    else:
        want = [label_to_binary(digits_label(label_digits(z, p.n, p.S), 1 << p.q), p) for z in labels]
    assert label_bitstrings(np.array(labels, dtype=np.int64), p, register) == want


def test_label_assignment_consistency(params3):
    for a in all_colored_permutations(3, 2):
        z = assignment_label(a, params3)
        assert label_assignment(z, params3) == a
        assert label_to_onehot(z, params3) == encode_assignment(a, params3)


def test_binary_label_of_assignment(params3):
    a = decode_bitstring(EXA_ONEHOT, params3)
    zb = assignment_label(a, params3, register="binary")
    assert label_to_binary(zb, params3) == "000100101"


def test_grouped_rendering():
    assert grouped(EXA_ONEHOT, 6) == "100000 000010 000001"
    assert grouped("000100101", 3) == "000 100 101"
    assert grouped("", 3) == ""
