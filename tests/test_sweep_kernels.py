"""The two per-point kernels of a sweep against their references.

`simulator._replica` replays numpy's multinomial (`random_multinomial`)
on the labels that can be drawn, with numpy's inversion, and lets numpy
draw each label it draws another way; it must give
`Generator.multinomial`'s counts exactly on every law. It depends on numpy
internals, so a numpy change must fail here rather than move output
bytes. `simulator._mix` visits cache-sized sub-blocks after mixing the
leading axes; its bytes must not depend on the blocking.

The n = 6 digests pin a sweep where both new paths run (2,985,984 labels,
two leading axes mixed whole, 1,728 labels per shot). The depth-1 and
depth-2 digests were taken from the multinomial over every label and the
unblocked mixer, the depth-3 ones from the mixer before the phase factor
moved into its first visit, and the instance is perfbench's sweep-n6k2 instance at seed 11, written by
`perfbench/gen.py`'s `to_vrp`. The n = 5, K = 3 digests pin a sweep
where K = 3 meets leading mixer axes; its instance is
`gen.generate(gen.instance_rng(11, "n5k3"), (1, 1, 2, 3, 4), 3)`. Each
instance sits in its own directory so that `bench --dir tests/data` does
not sweep it.
"""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colorperm import simulator, solver
from colorperm.cli import main
from colorperm.encoding import EncodingParams
from colorperm.hamiltonian import EnergyModel, PenaltyWeights
from colorperm.instances import Instance
from colorperm.simulator import sample
from tests.test_row_evolution import tensordot_mixer

ROOT = Path(__file__).resolve().parent.parent
N6_INSTANCE = "tests/data/n6/n6-k2.vrp"

N6_GOLDEN = {
    "default": (
        [],
        {
            "run.json": "0c2c7a84f1d95b6306b147295a97829f19979cf7bc92c6c9d359ea79a90bbbf1",
            "run.grid.csv": "19e97260fbc727d8baa124fcae2cf034c92d2504f88d3460f5ef4f6c0158bd55",
            "run.hist.csv": "8d5fa686deea588317bd1ba192c446a956b08d219b5f3cc415bead043052775e",
        },
    ),
    "depth2": (
        ["--depth", "2"],
        {
            "run.json": "d941d1141a836c2dc0d573fc68f704f0d328a9334c0d55791a89263366e1e87a",
            "run.grid.csv": "0c04046c373c792e99bac25ba1b275a7d49aea6789d032620e77151362007e0d",
            "run.hist.csv": "f0f0f358894a07f5df7c05c6d11fdde2dfab320ed7477a24d79fa273de29b4e7",
        },
    ),
    "depth3": (
        ["--depth", "3"],
        {
            "run.json": "734f496e067ef009dcbea073183c5224b88926472d2830f8d900e668842f8242",
            "run.grid.csv": "6fd4c10662ae583ba114c649f907f31d29ce6f87d8202b41e918066a02305f39",
            "run.hist.csv": "0d933986bcc25da1e8da45f6f56c39e2b9fc9aa0dc573ddb4f18fc9241d816b1",
        },
    ),
}


# The default grid CSV before a streamed depth-1 row copied its reversed
# head past the head (ROADMAP item 8): its digest and its p_star_exact
# strings, which sum optimal labels on both sides of the head and so move in
# their last bits. Every other byte is kept.
N6_HEAD_COPY = (
    "1a4546c9b3e0f98dbcc04fd58d9b1f0da001d2b7ff19b9f3de5a88b5d6f3770b",
    ["5.358367626886145e-06", "5.358367626886145e-06", "5.358367626886145e-06", "2.4404234518723326e-06"],
)


# n = 5, K = 3 (15^5 = 759,375 labels): the K = 3 sweep whose mixer has
# leading axes, 1-column slabs and 3,375-label sub-blocks. Its digests were
# taken before a gamma-0 layer ran on one slab and one sub-block.
N5K3_INSTANCE = "tests/data/n5k3/n5-k3.vrp"

N5K3_GOLDEN = {
    "default": (
        [],
        {
            "run.json": "68ff6385040f4d7435dc411448aa77efda9bbf02f1fb532fda1d931766d9d48c",
            "run.grid.csv": "b0f11f8e87620fd7d801397f334e57c7e7e358c92521f1288e62f1bdddf3450d",
            "run.hist.csv": "6d42e8419e9b1feb23155231002a5be49e47d0859213294b556691f4169f146b",
        },
    ),
    "depth2": (
        ["--depth", "2"],
        {
            "run.json": "a42fefcd327fe212c4264334c5158085677db7ad95d514e557bfcd0454080e86",
            "run.grid.csv": "0ee8caddee347e1c428fcd70a23e498f211111edcbf36004249fc8f97e58069d",
            "run.hist.csv": "b762196c6474d1389db91e721989d2ff6e4ba5c239c1cd5bbfeb88d149b2ef63",
        },
    ),
}


def solve_digests(tmp_path, monkeypatch, instance, flags, names):
    """sha256 of each named output of `solve --grid-points 2` on `instance`."""
    monkeypatch.chdir(ROOT)
    argv = ["solve", "--instance", instance, "--grid-points", "2", *flags, "--out", str(tmp_path / "run.json")]
    assert main(argv) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("config", sorted(N6_GOLDEN))
def test_n6_solve_output_digests(tmp_path, monkeypatch, config):
    flags, expected = N6_GOLDEN[config]
    assert solve_digests(tmp_path, monkeypatch, N6_INSTANCE, flags, expected) == expected
    if config == "default":
        # with the earlier p_star_exact strings put back, the grid CSV is the
        # earlier one byte for byte; each new string is within 1e-12 relative
        digest, strings = N6_HEAD_COPY
        config_line, header, *rows = (tmp_path / "run.grid.csv").read_bytes().split(b"\n")
        column = header.split(b",").index(b"p_star_exact")
        cells = [row.split(b",") for row in rows[:-1]]
        assert len(cells) == len(strings) and rows[-1] == b""
        for row, string in zip(cells, strings):
            assert math.isclose(float(row[column]), float(string), rel_tol=1e-12, abs_tol=0.0)
            row[column] = string.encode()
        earlier = b"\n".join([config_line, header, *(b",".join(row) for row in cells), b""])
        assert hashlib.sha256(earlier).hexdigest() == digest


@pytest.mark.parametrize("config", sorted(N5K3_GOLDEN))
def test_n5k3_solve_output_digests(tmp_path, monkeypatch, config):
    flags, expected = N5K3_GOLDEN[config]
    assert solve_digests(tmp_path, monkeypatch, N5K3_INSTANCE, flags, expected) == expected


def multinomial_counts(probs, shots, seed):
    """(labels, counts) of numpy's own draw, its nonzero entries, as lists."""
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    labels = np.flatnonzero(counts)
    return labels.tolist(), counts[labels].tolist()


def listed(drawn):
    """A (labels, counts) pair of arrays as lists, or None."""
    return None if drawn is None else (drawn[0].tolist(), drawn[1].tolist())


def lognormal(rng, d, sigma=2.0):
    return np.exp(sigma * rng.standard_normal(d))


@st.composite
def distributions(draw):
    """Normalised vectors as `sample` draws from them, and a shot count."""
    kind = draw(st.sampled_from(["lognormal", "uniform", "peaked", "zeros", "tail", "binary"]))
    d = draw(st.integers(min_value=1, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "lognormal":
        w = lognormal(rng, d)
    elif kind == "uniform":
        w = np.ones(d)
    elif kind == "peaked":
        w = 1e-3 * rng.random(d)
        w[draw(st.integers(min_value=0, max_value=d - 1))] = 1.0
    elif kind == "zeros":
        # zeros on either side of the last shot
        w = lognormal(rng, d)
        w[rng.random(d) < draw(st.sampled_from([0.001, 0.05, 0.5]))] = 0.0
        w[rng.integers(d)] = 1.0
    elif kind == "tail":
        # a tail far below the rounding of the running remainder, so that
        # p = probs[j] / remaining exceeds 1 or the remainder turns negative
        w = lognormal(rng, d)
        w[-draw(st.integers(min_value=1, max_value=d)) :] *= 1e-18
    else:
        # a binary register's vector: the one-hot law on its labels, zeros on padding
        params = draw(st.sampled_from([EncodingParams(2, 1), EncodingParams(3, 1), EncodingParams(3, 2)]))
        w = np.zeros(params.dim("binary"))
        w[params.binary_labels()] = lognormal(rng, params.dim("onehot"))
    probs = w / w.sum()
    # 1,000 and 20,000 shots take BTPE and p > 0.5 draws on many laws
    shots = draw(st.sampled_from([1, 2, 3, 7, 20, 60, 1000, 20_000]))
    return probs, shots, draw(st.integers(min_value=0, max_value=2**63 - 1))


def array_replica(probs, shots, rng):
    """`simulator._replica` on the normalised array `probs`, read as views."""
    return simulator._replica(lambda lo, hi: probs[lo:hi], len(probs), shots, rng)


@given(distributions())
@settings(max_examples=400, deadline=None)
def test_replica_draws_numpys_counts(case):
    probs, shots, seed = case
    got = listed(array_replica(probs, shots, np.random.default_rng(seed)))
    assert got == multinomial_counts(probs, shots, seed)


@pytest.mark.parametrize("chunk", [5, 64, simulator.REPLICA_CHUNK])
def test_replica_runs_and_matches_across_chunk_edges(monkeypatch, chunk):
    # 20,000 labels, 1 to 40 shots, half the mass on the last label: numpy
    # inverts at every label before the last shot, so the replica must run,
    # whatever its chunk size
    monkeypatch.setattr(simulator, "REPLICA_CHUNK", chunk)
    rng = np.random.default_rng(17)
    for shots in (1, 2, 9, 40):
        w = lognormal(rng, 20_000, sigma=1.0)
        w[-1] = w[:-1].sum()
        probs = w / w.sum()
        for seed in range(5):
            got = listed(array_replica(probs, shots, np.random.default_rng(seed)))
            assert got == multinomial_counts(probs, shots, seed)


def full_screen(pix, carry, dn, rng):
    """The reference screen: every label's p and threshold, with no bound
    to skip the labels that cannot draw; past the bound, every p above 0.5
    is kept."""
    rem = np.empty(len(pix) + 1)
    rem[0] = carry
    rem[1:] = pix
    np.subtract.accumulate(rem, out=rem)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = pix / rem[:-1]
        v = 1.0 - rng.random(len(pix))
        keep = v < (p + 2.0**-52) * (dn * (1.0 + 1e-9)) + 1e-15
        if not (p.min() > 0.0 and p.max() <= 0.5):
            keep |= p > 0.5
    walk = np.flatnonzero(keep)
    return walk.tolist(), p[walk].tolist(), (1.0 - v[walk]).tolist(), float(rem[-1])


@st.composite
def chunks(draw):
    """A chunk of a law as `_replica` screens it, its zeros dropped: spread
    out (the bound holds), with the remainder exhausted so that it rounds
    to 0 or below, or with one p above 0.5; its carry and shots left."""
    kind = draw(st.sampled_from(["spread", "exhausted", "over-half"]))
    m = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pix = lognormal(rng, m)
    carry = draw(st.sampled_from([1.0, 0.37, 1e-3]))
    pix *= carry / pix.sum() * (1.0 if kind == "exhausted" else draw(st.sampled_from([0.9, 0.1, 1e-4])))
    if kind == "over-half":
        pix[rng.integers(m)] = carry * 0.6
    return pix, carry, draw(st.integers(min_value=1, max_value=60)), draw(st.integers(min_value=0, max_value=2**63 - 1))


@given(chunks())
@settings(max_examples=400, deadline=None)
def test_screen_equals_the_full_screen(case):
    # the bound screen walks the labels, p and U of every label's test,
    # draws the same doubles, and runs in buffers longer than the chunk
    pix, carry, dn, seed = case
    buffers = np.empty(len(pix) + 8), np.empty(len(pix) + 7), np.zeros(len(pix) + 7, dtype=bool)
    got_rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulator._screen(pix, carry, dn, got_rng, *buffers)
    assert repr(got) == repr(full_screen(pix, carry, dn, full_rng))
    assert got_rng.random() == full_rng.random()
    rem = np.subtract.accumulate(np.concatenate([[carry], pix]))
    if pix.min() > 0.0 and rem[-2] > 0.0 and pix.max() / rem[-2] <= 0.5:
        # the bound held, so only the labels under its threshold were tested
        v = 1.0 - np.random.default_rng(seed).random(len(pix))
        assert np.array_equal(buffers[2][: len(pix)], v < (pix.max() / rem[-2] + 2.0**-52) * (dn * (1.0 + 1e-9)) + 1e-15)


class Doubles:
    """A generator stand-in whose `random` gives the same doubles, as an
    array of a size or into `out`."""

    def __init__(self, values):
        self.values = values

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[:] = self.values[: len(out)]
        return out


def test_screen_walks_a_double_just_under_the_bounds_threshold():
    # the chunk's last label has p at the bound; its 1 - U is the largest
    # double on U's 2**-53 grid under its threshold, so the bound's test
    # must keep it, and the walk must equal the full screen's
    pix, carry, dn = np.full(50, 1e-3), 1.0, 7
    rem = np.subtract.accumulate(np.concatenate([[carry], pix]))
    threshold = (pix[-1] / rem[-2] + 2.0**-52) * (dn * (1.0 + 1e-9)) + 1e-15
    under = math.ceil(threshold / 2.0**-53 - 1) * 2.0**-53
    assert under < threshold <= under + 2.0**-53
    U = np.full(50, 0.5)
    U[-1] = 1.0 - under
    buffers = np.empty(51), np.empty(50), np.empty(50, dtype=bool)
    got = simulator._screen(pix, carry, dn, Doubles(U), *buffers)
    assert got[0] == [49] and repr(got) == repr(full_screen(pix, carry, dn, Doubles(U)))


@st.composite
def crossing_chunks(draw):
    """A chunk whose remainder runs out inside it, as at the end of a law:
    p passes 0.5 at a drawn label and climbs to 1 or more after it, with
    labels spread out before it; its carry and shots left."""
    m = draw(st.integers(min_value=2, max_value=3 * simulator.PHASE_BLOCK))
    cross = draw(st.integers(min_value=1, max_value=m - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pix = lognormal(rng, m) * 1e-6
    carry = pix[:cross].sum() + pix[cross] * draw(st.sampled_from([1.0, 1.5, 1.9]))
    return pix, carry, draw(st.integers(min_value=1, max_value=60)), draw(st.integers(min_value=0, max_value=2**63 - 1))


@given(crossing_chunks())
@settings(max_examples=200, deadline=None)
def test_a_chunk_crossing_half_equals_the_full_screen(case):
    # every label is tested, PHASE_BLOCK thresholds at a time, and each p
    # above 0.5 is kept wherever it falls among the blocks
    pix, carry, dn, seed = case
    buffers = np.empty(len(pix) + 3), np.empty(len(pix) + 2), np.zeros(len(pix) + 2, dtype=bool)
    got_rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulator._screen(pix, carry, dn, got_rng, *buffers)
    reference = full_screen(pix, carry, dn, full_rng)
    assert repr(got) == repr(reference)
    assert got_rng.random() == full_rng.random()
    with np.errstate(divide="ignore", invalid="ignore"):
        p = pix / np.subtract.accumulate(np.concatenate([[carry], pix]))[:-1]
    assert np.argmax(~((p > 0.0) & (p <= 0.5))) in got[0]


def test_a_chunk_crossing_half_allocates_no_chunk_sized_array():
    # a draw's last chunk tests every label: p and the thresholds are made
    # PHASE_BLOCK labels at a time, beside the remainders' buffer, so the
    # screen peaks far below one float64 array of the chunk
    m = simulator.REPLICA_CHUNK
    pix = lognormal(np.random.default_rng(5), m) * 1e-6
    carry = pix[: m - 40].sum() * (1 + 1e-12)
    buffers = np.empty(m + 1), np.empty(m), np.empty(m, dtype=bool)
    tracemalloc.start()
    try:
        walk, ps, _, _ = simulator._screen(pix, carry, 9, np.random.default_rng(1), *buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(ps) > 0.5 and len(walk) < 1000
    assert peak < 2 * m


def sample_and_reference(probs, shots, seed):
    """`sample`'s counts from `probs` on a 216-label state, and numpy's
    multinomial on the same normalised vector."""
    params = EncodingParams(3, 2)
    drawn = sample(probs.copy(), shots, seed, params)
    return listed((drawn.labels, drawn.counts)), multinomial_counts(probs / probs.sum(), shots, seed)


def uniform_with(head):
    probs = np.full(216, (1.0 - sum(head)) / (216 - len(head)))
    probs[: len(head)] = head
    return probs


class CountedRng:
    """A generator that notes each draw numpy makes for it whole: a
    binomial (one label) as "binomial", a multinomial as its length."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def binomial(self, n, p):
        self.calls.append("binomial")
        return self.rng.binomial(n, p)

    def multinomial(self, shots, probs):
        self.calls.append(len(probs))
        return self.rng.multinomial(shots, probs)


def counted_rngs(monkeypatch):
    """The draws of every generator `np.random.default_rng` makes from now
    on (`CountedRng`)."""
    calls, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountedRng(make(seed), calls))
    return calls


@pytest.mark.parametrize("case", ["zero", "over-half", "btpe", "restart"])
def test_each_fallback_hands_the_draw_to_numpy(monkeypatch, case):
    # each label numpy draws another way is drawn by numpy itself; a zero
    # label, which draws no double, is dropped from the screen instead
    monkeypatch.setattr(simulator, "REPLICA_SPREAD", 0)
    shots, probs = 5, uniform_with([])
    if case == "zero":
        probs = uniform_with([0.0])  # numpy draws no double for p == 0
    elif case == "over-half":
        probs = uniform_with([0.6])  # numpy inverts 1 - p
    elif case == "btpe":
        shots = 10_000  # p * dn > 30: numpy's BTPE draw
    else:
        # (1 - p)**dn of 0 sends every inversion past its bound
        monkeypatch.setattr(simulator, "math", type("libm", (), {"exp": lambda x: 0.0, "log": math.log, "sqrt": math.sqrt}))
    for seed in range(3):
        calls = []
        got = listed(array_replica(probs, shots, CountedRng(np.random.default_rng(seed), calls)))
        assert got == multinomial_counts(probs, shots, seed)
        assert calls.count("binomial") == len(calls) and bool(calls) == (case != "zero")
        drawn, reference = sample_and_reference(probs, shots, seed)
        assert drawn == reference


def test_a_non_finite_law_hands_the_draw_to_numpy(monkeypatch):
    # numpy refuses the law, and so do the replica and sample
    monkeypatch.setattr(simulator, "REPLICA_SPREAD", 0)
    for probs in (uniform_with([np.nan]), uniform_with([0.5, -0.1])):
        with pytest.raises(ValueError, match="pvals"):
            array_replica(probs, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="pvals"):
            np.random.default_rng(0).multinomial(5, probs)
        with pytest.raises(ValueError, match="pvals"):
            sample_and_reference(probs, 5, 0)


@pytest.mark.parametrize("shots", [1, 40, 1000])
def test_a_law_of_zeros_is_screened_once_per_chunk(monkeypatch, shots):
    # 95% exact zeros: each chunk drops them once, so it is screened once,
    # and again only after each label numpy draws itself
    monkeypatch.setattr(simulator, "REPLICA_CHUNK", 1000)
    rng = np.random.default_rng(23)
    w = lognormal(rng, 20_000)
    w[rng.random(len(w)) < 0.95] = 0.0
    probs = w / w.sum()
    screens, original = [], simulator._screen
    monkeypatch.setattr(simulator, "_screen", lambda *args: screens.append(len(args[0])) or original(*args))
    for seed in range(3):
        screens.clear()
        calls = []
        got = listed(array_replica(probs, shots, CountedRng(np.random.default_rng(seed), calls)))
        assert got == multinomial_counts(probs, shots, seed)
        assert len(screens) <= math.ceil((len(probs) - 1) / 1000) + len(calls)
        assert max(screens) < 200


def test_a_spread_draw_from_a_head_allocates_nothing_label_sized(monkeypatch):
    # n = 5, K = 2: 100,000 labels, 500 shots, and a head label holding a
    # third of the mass (its reversed label another), which numpy draws by
    # BTPE; the draw reads the head a chunk at a time and peaks below half a
    # float64 array of every label. So does a draw from the whole
    # distribution, which it reads into the same chunk and does not write
    monkeypatch.setattr(simulator, "REPLICA_CHUNK", 2**12)
    params = EncodingParams(5, 2)
    head = lognormal(np.random.default_rng(3), params.dim("onehot") // 2, sigma=0.5)
    head[777] = head.sum() * 2
    full, shots = materialised(params, head), params.dim("onehot") // 200
    kept = full.copy()
    want = sample(full.copy(), shots, (4, 1), params)
    calls = counted_rngs(monkeypatch)
    for probs in (head, full):
        calls.clear()
        tracemalloc.start()
        try:
            got = sample(probs, shots, (4, 1), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.labels.tolist(), got.counts.tolist()) == (want.labels.tolist(), want.counts.tolist())
        assert "binomial" in calls and peak < 4 * len(full)
    assert full.tobytes() == kept.tobytes()


@pytest.mark.parametrize("n, K", [(3, 2), (4, 2), (3, 5)])
def test_no_spread_out_draw_is_a_whole_array_draw(monkeypatch, n, K):
    # heads and whole laws with zeros, a label over half the mass or one
    # numpy draws by BTPE: every state at or above the spread rule is drawn
    # by the replica; the others by one multinomial on every label
    params = EncodingParams(n, K)
    labels, make = params.dim("onehot"), np.random.default_rng
    calls = counted_rngs(monkeypatch)
    for heavy, zeros in ((0.0, 0.0), (0.6, 0.0), (0.3, 0.5)):
        head = lognormal(make(n + K), labels // K * -(-K // 2))
        head[make(1).random(len(head)) < zeros] = 0.0
        head[-1] = head.sum() * heavy
        for shots in (1, labels // simulator.REPLICA_SPREAD, labels // simulator.REPLICA_SPREAD + 1, labels):
            for probs in (head, materialised(params, head)):
                calls.clear()
                assert sample(probs.copy(), shots, 5, params).counts.sum() == shots
                whole = [call for call in calls if call != "binomial"]
                assert whole == ([] if labels >= simulator.REPLICA_SPREAD * shots else [labels])


def test_sample_runs_the_replica_only_on_spread_out_states(monkeypatch):
    ran = []
    original = simulator._replica

    def replica(read, d, shots, rng):
        ran.append(d / shots)
        return original(read, d, shots, rng)

    monkeypatch.setattr(simulator, "_replica", replica)
    probs = uniform_with([])
    for shots in (1, 2, 3):
        drawn, reference = sample_and_reference(probs, shots, 4)
        assert drawn == reference
    assert ran == [216.0]


def materialised(params, head):
    """The distribution of every label a head on ceil(K/2) of K vehicles
    stands for: past it, each leading digit's `_digit_block` view."""
    digit = params.S ** (params.n - 1)
    return np.concatenate([head] + [simulator._digit_block(params, head, d).reshape(-1) for d in range(len(head) // digit, params.S)])


@st.composite
def heads(draw):
    """A head at K = 2-5 of at most 2 * 10**5 labels in all, with or without
    zeros, and a leaf of 128 (numpy's own block) or more labels."""
    K = draw(st.integers(2, 5))
    params = EncodingParams(draw(st.sampled_from([n for n in range(1, 6) if (n * K) ** n <= 2 * 10**5])), K)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    head = lognormal(rng, params.dim("onehot") // K * -(-K // 2))
    head[rng.random(len(head)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return params, head, draw(st.sampled_from([128, 1000, 4096, simulator.REPLICA_CHUNK]))


@given(heads())
@settings(max_examples=150, deadline=None)
def test_the_total_of_a_head_is_numpys_sum_of_every_label(case):
    # numpy's pairwise split, replayed down to leaves it sums itself, reads
    # the labels past the head through their reversed view; on a whole
    # one-hot distribution, and on a binary one with zeros on its padded
    # words, it reads views of every label
    params, head, leaf = case
    full = materialised(params, head)
    assert len(full) == params.dim("onehot")
    binary = np.zeros(params.dim("binary"))
    binary[params.binary_labels()] = full
    for probs, every in ((head, full), (full, full), (binary, binary)):
        assert simulator._total(params, probs, 0, len(every), np.empty(leaf)).tobytes() == every.sum().tobytes()
    # and every label is held at its own label or its vehicle-reversed one
    labels = np.arange(len(full))
    assert head[np.where(labels < len(head), labels, vehicle_reversed(params, labels))].tobytes() == full.tobytes()


def vehicle_reversed(params, labels):
    """Each one-hot label with the vehicle k of every position read as
    K - 1 - k, from its (vehicle, customer) digits: the reversal that
    `_digit_block` views past a head."""
    shape = (params.K, params.n) * params.n
    digits = np.unravel_index(labels, shape)
    return np.ravel_multi_index([params.K - 1 - x if axis % 2 == 0 else x for axis, x in enumerate(digits)], shape)


@given(heads(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_p_star_exact_of_a_head_is_that_of_its_whole_distribution(case, seed):
    # grid_row reads every optimal label through its leading digit's
    # `_digit_block` view, reversed past a head, in label order: numpy's
    # sum of those labels of every label, bit for bit
    params, head, _ = case
    assume(head.any())  # a draw divides by the total
    full, n, K = materialised(params, head), params.n, params.K
    inst = Instance("t", n, K, [1] * n, [n] * K, np.zeros((n, n)), np.ones(n), np.ones(n))
    model = EnergyModel(inst, PenaltyWeights(), params)
    for optimal in (np.arange(len(full)), np.flatnonzero(np.random.default_rng(seed).random(len(full)) < 0.01)):
        for probs in (head, full):
            [(record, _, _)] = solver.grid_row(model, 0.1, (0.2,), [probs.copy()], 1, 0, 0, "objective", (optimal, 0.0))
            assert record.p_star_exact == float(full[optimal].sum())


@pytest.mark.parametrize("path", ["replica", "small-state", "zero"])
@pytest.mark.parametrize("n, K", [(4, 2), (5, 2), (3, 3), (3, 5)])
def test_a_head_draws_what_its_whole_distribution_draws(monkeypatch, n, K, path):
    # chunks of 1,000 labels cross the head and the leading digits; a first
    # label of mass 0 (numpy draws no double for it) is dropped from its
    # chunk's screen; a spread rule no state meets hands the draw to numpy,
    # which draws from the whole distribution built from the head. The head
    # is never written
    params = EncodingParams(n, K)
    head = lognormal(np.random.default_rng(10 * n + K), params.dim("onehot") // K * -(-K // 2), sigma=0.5)
    if path == "zero":
        head[0] = 0.0
    if path == "small-state":
        monkeypatch.setattr(simulator, "REPLICA_SPREAD", 10**9)
    monkeypatch.setattr(simulator, "REPLICA_CHUNK", 1000)
    ran, original = [], simulator._replica
    monkeypatch.setattr(simulator, "_replica", lambda *args: ran.append(original(*args)) or ran[-1])
    full, kept, shots = materialised(params, head), head.copy(), params.dim("onehot") // 200
    for seed in range(3):
        got, want = sample(head, shots, (seed, 1), params), sample(full.copy(), shots, (seed, 1), params)
        assert (got.labels.tolist(), got.counts.tolist()) == (want.labels.tolist(), want.counts.tolist())
    assert head.tobytes() == kept.tobytes()
    assert [drawn is None for drawn in ran] == {"replica": [False] * 6, "small-state": [], "zero": [False] * 6}[path]


def test_sample_refuses_any_other_length():
    # n = 3, K = 2: 216 one-hot labels, 108 in the head; a binary state's
    # 512 labels are never drawn
    params = EncodingParams(3, 2)
    for length in (107, 109, 215, 217, 512):
        with pytest.raises(ValueError, match="must have length 216 or its head's 108$"):
            sample(np.ones(length), 5, 0, params)
    with pytest.raises(ValueError, match="must have length 27$"):
        sample(np.ones(26), 5, 0, EncodingParams(3, 1))


def mixed(amps, params, beta, square=False):
    """`_mix` on a copy of `amps`: the mixed amplitudes, or with `square`
    the distribution it leaves in the float64 view of their buffer."""
    out = amps.copy()
    simulator._mix(out, params, beta, square)
    return out.view(np.float64)[: len(out)] if square else out


@pytest.mark.parametrize(
    "n, K, lead",
    [(3, 2, 1), (4, 2, 1), (4, 2, 2), (4, 3, 2), (5, 1, 3), (5, 2, 1), (5, 2, 3)],
)
@pytest.mark.parametrize("beta", [0.3, 2.1, -5.0])
def test_blocked_mix_equals_the_whole_state_mix(monkeypatch, n, K, lead, beta):
    params = EncodingParams(n, K)
    rng = np.random.default_rng(n * 10 + K)
    amps = rng.standard_normal(params.dim("onehot")) + 1j * rng.standard_normal(params.dim("onehot"))
    monkeypatch.setattr(simulator, "MIX_BLOCK", params.dim("onehot"))
    whole, whole_probs = mixed(amps, params, beta), mixed(amps, params, beta, square=True)
    monkeypatch.setattr(simulator, "MIX_BLOCK", params.S ** (n - lead))
    blocked, probs = mixed(amps, params, beta), mixed(amps, params, beta, square=True)
    assert np.array_equal(blocked, whole)
    assert np.array_equal(probs, whole_probs)
    assert np.array_equal(probs, np.abs(whole) ** 2)
    assert np.abs(blocked - tensordot_mixer(amps, params, beta)).max() < 1e-12


@pytest.mark.parametrize("n, K", [(1, 3), (2, 2), (3, 2), (4, 1)])
def test_blocking_leaves_two_axes_to_each_sub_block(monkeypatch, n, K):
    # at most n - 2 leading axes are mixed whole, however small MIX_BLOCK:
    # a 1-D sub-block would sum its last axis in another order
    params = EncodingParams(n, K)
    amps = np.random.default_rng(n).standard_normal(params.dim("onehot")).astype(complex)
    whole, blocked = amps.copy(), amps.copy()
    simulator._mix(whole, params, 0.7)
    monkeypatch.setattr(simulator, "MIX_BLOCK", 1)
    simulator._mix(blocked, params, 0.7)
    assert np.array_equal(blocked, whole)
