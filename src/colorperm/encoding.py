"""Codecs for the global-position colored-permutation encoding.

A routing plan is written on a timeline of n global positions. Position j
holds exactly one symbol (i, k), "customer i served by vehicle k", drawn
from an alphabet of size S = n*K. Three equivalent representations are
handled here:

* assignment: the per-position symbol list, plus its 0/1 tensor
  X[i, j, k] and the induced n x n matrix P = sum_k X^(k);
* one-hot bitstring: n blocks of S bits, block j one-hot at the symbol
  index s = i + n*k;
* binary bitstring: n words of q = ceil(log2(S)) bits, word j holding s
  as an MSB-first binary numeral (word values >= S are invalid padding).

Basis states of the encoded registers are also addressed by integer
labels: mixed-radix numerals with block 0 as the most significant digit,
radix S (one-hot register) or 2^q (binary register). `EncodingParams`
owns this geometry: the radix and dimension of each register, and the
digit-wise relabelling of one-hot labels into binary ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REGISTERS = ("onehot", "binary")


class CodecError(ValueError):
    """A bitstring or assignment that does not fit the encoding."""


class ZeroHotError(CodecError):
    def __init__(self, block):
        self.block = block
        super().__init__(f"block {block} has no set bit")


class MultiHotError(CodecError):
    def __init__(self, block):
        self.block = block
        super().__init__(f"block {block} has more than one set bit")


class PaddingLeakError(CodecError):
    def __init__(self, block, word):
        self.block = block
        self.word = word
        super().__init__(f"block {block} decodes to invalid word {word}")


class NotOnceEachError(CodecError):
    def __init__(self, customer, count):
        self.customer = customer
        self.count = count
        super().__init__(f"customer {customer} appears {count} times")


@dataclass(frozen=True)
class EncodingParams:
    """Shape of the encoding: n positions/customers, K vehicles."""

    n: int
    K: int

    def __post_init__(self):
        if self.n < 1 or self.K < 1:
            raise ValueError("need n >= 1 and K >= 1")

    @property
    def S(self):
        """Alphabet size per position."""
        return self.n * self.K

    @property
    def q(self):
        """Bits per binary word, ceil(log2(S)) with q = 0 at S = 1."""
        return (self.S - 1).bit_length()

    @property
    def onehot_len(self):
        return self.n * self.S

    @property
    def binary_len(self):
        return self.n * self.q

    def radix(self, register):
        """Label digit radix: S (one-hot register) or 2^q (binary)."""
        if register == "onehot":
            return self.S
        if register == "binary":
            return 1 << self.q
        raise ValueError(f"unknown register {register!r}")

    def dim(self, register):
        """Number of basis labels of the register, radix^n."""
        return self.radix(register) ** self.n

    def binary_labels(self):
        """Binary-register label of every one-hot label, indexed by the
        one-hot label: the same digits read in radix 2^q. The result is
        ascending and misses exactly the labels with a padded word."""
        digits = np.arange(self.S, dtype=np.int64)
        labels = np.zeros(1, dtype=np.int64)
        for _ in range(self.n):
            labels = ((labels[:, None] << self.q) + digits).ravel()
        return labels

    @classmethod
    def for_instance(cls, inst):
        return cls(inst.n, inst.K)


def symbol_index(i, k, n, K=None):
    """Symbol index s = i + n*k of customer i on vehicle k (all 0-based)."""
    if not 0 <= i < n:
        raise ValueError(f"customer index {i} out of range [0, {n})")
    if k < 0 or (K is not None and k >= K):
        raise ValueError(f"vehicle index {k} out of range")
    return i + n * k


def symbol_unindex(s, n):
    """Inverse of symbol_index: (i, k) = (s mod n, s div n)."""
    if s < 0:
        raise ValueError("negative symbol index")
    return s % n, s // n


@dataclass(frozen=True)
class ColoredAssignment:
    """Per-position (customer, vehicle) symbols, 0-based, plus K."""

    symbols: tuple
    K: int

    def __post_init__(self):
        symbols = tuple((int(i), int(k)) for i, k in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        n = len(symbols)
        if n < 1:
            raise ValueError("assignment needs at least one position")
        for i, k in symbols:
            if not 0 <= i < n:
                raise ValueError(f"customer index {i} out of range [0, {n})")
            if not 0 <= k < self.K:
                raise ValueError(f"vehicle index {k} out of range [0, {self.K})")

    @classmethod
    def from_pairs(cls, pairs, K, one_based=False):
        off = 1 if one_based else 0
        return cls(tuple((i - off, k - off) for i, k in pairs), K)

    @property
    def n(self):
        return len(self.symbols)

    def one_based(self):
        return tuple((i + 1, k + 1) for i, k in self.symbols)

    def customer_counts(self):
        counts = [0] * self.n
        for i, _ in self.symbols:
            counts[i] += 1
        return counts

    def tensor(self):
        """0/1 tensor X with X[i, j, k] = 1 iff position j holds (i, k)."""
        X = np.zeros((self.n, self.n, self.K), dtype=int)
        for j, (i, k) in enumerate(self.symbols):
            X[i, j, k] = 1
        return X

    def slices(self):
        """Per-vehicle n x n matrices X^(k)."""
        X = self.tensor()
        return [X[:, :, k] for k in range(self.K)]

    def matrix(self):
        """P = sum_k X^(k); a permutation matrix iff every customer
        appears exactly once."""
        return self.tensor().sum(axis=2)


def permutation_view(a):
    """(P, slices) of an assignment that uses every customer once.

    P is an n x n permutation matrix and the K slices are partial
    permutation matrices with pairwise disjoint supports summing to P.
    Raises NotOnceEachError otherwise.
    """
    counts = a.customer_counts()
    for i, c in enumerate(counts):
        if c != 1:
            raise NotOnceEachError(i, c)
    return a.matrix(), a.slices()


def _check_bits(bits, length, what):
    if len(bits) != length:
        raise CodecError(f"{what} must have length {length}, got {len(bits)}")
    if bits.strip("01"):
        raise CodecError(f"{what} must contain only 0/1 characters")


def encode_assignment(a, p):
    """One-hot bitstring of an assignment: block j one-hot at i_j + n*k_j."""
    if a.n != p.n or a.K != p.K:
        raise CodecError("assignment shape does not match encoding params")
    return label_to_onehot(assignment_label(a, p), p)


def decode_bitstring(b, p):
    """Inverse of encode_assignment on well-formed one-hot strings."""
    _check_bits(b, p.onehot_len, "one-hot bitstring")
    symbols = []
    for j in range(p.n):
        block = b[j * p.S : (j + 1) * p.S]
        ones = block.count("1")
        if ones == 0:
            raise ZeroHotError(j)
        if ones > 1:
            raise MultiHotError(j)
        symbols.append(symbol_unindex(block.index("1"), p.n))
    return ColoredAssignment(tuple(symbols), p.K)


def compress(b, p):
    """One-hot string -> binary string, one q-bit MSB-first word per block."""
    return label_to_binary(assignment_label(decode_bitstring(b, p), p, "binary"), p)


def decompress(y, p):
    """Binary string -> one-hot string; rejects word values >= S."""
    words = label_digits(binary_to_label(y, p), p.n, p.radix("binary"))
    for j, s in enumerate(words):
        if s >= p.S:
            raise PaddingLeakError(j, s)
    return _onehot(words, p.S)


def grouped(bits, width):
    """Human-facing rendering with a space every `width` characters."""
    if width <= 0:
        return bits
    return " ".join(bits[i : i + width] for i in range(0, len(bits), width))


# --- integer label addressing of register basis states ---


def label_digits(z, n, radix):
    """Mixed-radix digits of label z, most significant digit first."""
    digits = []
    for _ in range(n):
        z, r = divmod(z, radix)
        digits.append(r)
    if z:
        raise ValueError("label out of range for this register")
    return tuple(reversed(digits))


def label_digits_array(labels, n, radix):
    """(n, m) digit array of m labels, block 0 in row 0 (most significant)."""
    digits = np.empty((n, len(labels)), dtype=np.int64)
    rem = np.asarray(labels, dtype=np.int64).copy()
    for j in range(n - 1, -1, -1):
        rem, digits[j] = np.divmod(rem, radix)
    if (rem != 0).any():
        raise ValueError("label out of range for this register")
    return digits


def recode_labels(labels, p, source, target):
    """`source` labels without a padded word as `target` labels: the same digits in its radix."""
    return p.radix(target) ** np.arange(p.n - 1, -1, -1) @ label_digits_array(labels, p.n, p.radix(source))


def digits_label(digits, radix):
    z = 0
    for d in digits:
        if not 0 <= d < radix:
            raise ValueError(f"digit {d} out of range [0, {radix})")
        z = z * radix + int(d)
    return z


def _onehot(digits, S):
    """Blocks of S bits, one-hot at each symbol digit."""
    return "".join("0" * s + "1" + "0" * (S - 1 - s) for s in digits)


def label_to_onehot(z, p):
    """One-hot bitstring of a one-hot-register label."""
    return _onehot(label_digits(z, p.n, p.S), p.S)


def label_to_binary(z, p):
    """Binary bitstring of a binary-register label (padding words kept)."""
    words = label_digits(z, p.n, p.radix("binary"))
    return "".join(format(w, f"0{p.q}b") if p.q else "" for w in words)


def label_bitstring(z, p, register):
    """Bitstring of a register label: one-hot blocks or binary words."""
    return (label_to_onehot if register == "onehot" else label_to_binary)(z, p)


def onehot_to_label(b, p):
    a = decode_bitstring(b, p)
    return assignment_label(a, p)


def binary_to_label(y, p):
    _check_bits(y, p.binary_len, "binary bitstring")
    words = [int(y[j * p.q : (j + 1) * p.q], 2) if p.q else 0 for j in range(p.n)]
    return digits_label(words, p.radix("binary"))


def assignment_label(a, p, register="onehot"):
    """Register label of an assignment (its symbol digits in either radix)."""
    digits = [symbol_index(i, k, p.n, p.K) for i, k in a.symbols]
    return digits_label(digits, p.radix(register))


def label_assignment(z, p, register="onehot"):
    """Assignment of a register label (its digits are symbol indices)."""
    symbols = tuple(symbol_unindex(s, p.n) for s in label_digits(z, p.n, p.radix(register)))
    return ColoredAssignment(symbols, p.K)
