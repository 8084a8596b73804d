"""Tests for the pluggable compute-kernel layer (repro.simulation.kernels).

The contract under test: every kernel is **bit-for-bit identical** to
the ``"numpy"`` reference for all four SNG kinds, noisy and noiseless,
one-shot and composed with the chunking/sharding runtime — choosing a
kernel is a pure wall-clock/memory lever.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigurationError
from repro.simulation import kernels
from repro.simulation.engine import derive_seed_schedule, simulate_batch
from repro.simulation.faultmodel import FaultSpec
from repro.simulation.kernels import (
    KERNELS,
    PackedLfsrSource,
    PackedSobolSource,
    kernel_capabilities,
    pack_bits,
    pass_context,
    popcount,
    resolve_kernel,
    stream_source,
    unpack_bits,
)
from repro.simulation.runtime import (
    RuntimeConfig,
    run_batch,
    simulate_batch_sharded,
    simulate_chunked,
)
from repro.stochastic.lfsr import lfsr_uniform_windows
from repro.stochastic.sng import (
    SNG_KINDS,
    chaotic_orbit,
    chaotic_warmup,
    derive_chaotic_intensities,
    derive_lfsr_seeds,
    derive_sobol_offsets,
    make_independent_sngs,
    van_der_corput,
)

BATCH_FIELDS = (
    "xs",
    "values",
    "expected",
    "received_power_mw",
    "output_bits",
    "ideal_bits",
    "select_levels",
)

NON_NUMPY_KERNELS = [k for k in KERNELS if k != "numpy"]


@pytest.fixture(scope="module")
def circuit():
    return repro.OpticalStochasticCircuit(
        repro.paper_section5a_parameters(),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


LOW_MARGIN = "low_margin"

NOISE_CASES = [True, False, pytest.param(LOW_MARGIN, id=LOW_MARGIN)]
"""The parity tests' noise axis.

``True`` is noisy at the Section V-A point, where the link BER is about
1e-111 and no decision ever flips; ``LOW_MARGIN`` is noisy on the
``low_margin_circuit`` design, where receiver noise really does.
"""


def _noise_case(request, circuit, noisy):
    """``(circuit, noisy, min_bit_errors)`` of a :data:`NOISE_CASES` value."""
    if noisy == LOW_MARGIN:
        return request.getfixturevalue("low_margin_circuit"), True, 1
    return circuit, noisy, 0


def assert_batches_equal(reference, other):
    for field in BATCH_FIELDS:
        assert np.array_equal(
            getattr(reference, field), getattr(other, field)
        ), field
    assert np.array_equal(
        reference.transmission_bit_errors, other.transmission_bit_errors
    )


class TestRegistry:
    def test_registry_names(self):
        assert KERNELS == ("numpy", "packed")

    def test_resolve_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            resolve_kernel("gpu")

    def test_capabilities_cover_registry(self):
        table = kernel_capabilities()
        assert set(table) == set(KERNELS)
        assert table["numpy"]["available"] is True
        assert table["packed"]["bit_tensor_bytes_per_bit"] == pytest.approx(
            1 / 8
        )

    def test_runtime_config_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            RuntimeConfig(kernel="bogus")

    def test_simulate_batch_rejects_unknown_kernel(self, circuit):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            simulate_batch(circuit, [0.5], length=64, kernel="bogus")

    def test_numba_unavailable_fails_at_construction(self):
        # The removed JIT kernel's name is refused like any unknown one.
        with pytest.raises(ConfigurationError, match="numba"):
            RuntimeConfig(kernel="numba")

    def test_pool_backend_and_kernel_are_distinct_knobs(self):
        # Naming hygiene: `backend` picks the worker pool, `kernel` the
        # compute implementation; both validate at construction.
        config = RuntimeConfig(backend="thread", kernel="packed")
        assert config.backend == "thread"
        assert config.kernel == "packed"
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RuntimeConfig(backend="packed")


class TestPackingPrimitives:
    def test_pack_unpack_roundtrip_tail(self):
        rng = np.random.default_rng(1)
        for length in (1, 40, 64, 65, 200, 1000):
            bits = rng.integers(0, 2, size=(3, 2, length), dtype=np.uint8)
            words = pack_bits(bits)
            assert words.shape == (3, 2, (length + 63) // 64)
            assert words.dtype == np.uint64
            assert np.array_equal(unpack_bits(words, length), bits)

    def test_pack_pads_tail_with_zeros(self):
        words = pack_bits(np.ones((1, 70), dtype=np.uint8))
        assert words[0, 1] == (1 << 6) - 1

    def test_popcount_matches_lut(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 1 << 64, size=(5, 7), dtype=np.uint64)
        fast = popcount(words)
        lut = popcount(words, use_lut=True)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, lut)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_packed_popcount_equals_unpacked_sums(self, rows, length, seed):
        # The property the packed statistics accumulators rely on: the
        # popcount of packed words equals the per-row sum of the bits.
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, length), dtype=np.uint8)
        words = pack_bits(bits)
        for use_lut in (False, True):
            counts = popcount(words, use_lut=use_lut).sum(axis=-1)
            assert np.array_equal(counts, bits.sum(axis=1, dtype=np.int64))

    @pytest.mark.parametrize("width", [5, 8, 16])
    def test_packed_lfsr_source_matches_unpacked_windows(self, width):
        seeds = derive_lfsr_seeds(np.array([3, 77]), 3, width)
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
        source = PackedLfsrSource.create(seeds, values, width)
        assert source is not None
        for offset, length in ((0, 130), (37, 64), (100, 70001)):
            words = source.take(offset, length)
            uniforms = lfsr_uniform_windows(seeds, length, width, offset=offset)
            expected = (uniforms < values[..., None]).astype(np.uint8)
            assert np.array_equal(unpack_bits(words, length), expected)

    def test_packed_lfsr_source_resumes_by_offset(self):
        seeds = derive_lfsr_seeds(np.array([9]), 2, 16)
        values = np.array([[0.3, 0.6]])
        source = PackedLfsrSource.create(seeds, values, 16)
        tiles = [source.take(start, 96) for start in (0, 96, 192)]
        stitched = np.concatenate(
            [unpack_bits(t, 96) for t in tiles], axis=-1
        )
        one_shot = PackedLfsrSource.create(seeds, values, 16).take(0, 288)
        assert np.array_equal(stitched, unpack_bits(one_shot, 288))

    def test_packed_lfsr_wide_register_falls_back(self):
        seeds = derive_lfsr_seeds(np.array([3]), 2, 24)
        assert (
            PackedLfsrSource.create(seeds, np.array([[0.5, 0.5]]), 24)
            is None
        )


SOURCE_SEEDS = np.array([3, 77])
SOURCE_VALUES = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
SOURCE_LENGTH = 4096 + 777
"""Crosses one packing block; the tail is not word-aligned."""
FAR_OFFSET = 70001
"""Past the width-16 cycle (65535 clocks), so re-aimed reads wrap it."""

# (kind, width, resumable by offset): widths past the cycle caps (LFSR
# 22, Sobol 24) take the compare-and-pack fallbacks; chaotic orbits and
# wide LFSR registers carry state and resume only in sequence.
STREAM_CASES = [
    ("lfsr", 5, True),
    ("lfsr", 16, True),
    ("lfsr", 22, False),
    ("sobol", 5, True),
    ("sobol", 16, True),
    ("sobol", 24, True),
    ("chaotic", 16, False),
    ("counter", 16, True),
]


def _scalar_streams(kind, width, length):
    """The reference streams of the scalar SNGs, ``(B, C, length)``."""
    rows = []
    for seed, values in zip(SOURCE_SEEDS, SOURCE_VALUES):
        sngs = make_independent_sngs(
            values.size, kind, width=width, base_seed=int(seed)
        )
        rows.append(
            [sng.generate(float(v), length).bits for sng, v in zip(sngs, values)]
        )
    return np.asarray(rows, dtype=np.uint8)


class TestStreamSourceContract:
    """One contract for every randomizer bank the engine and runtime use.

    ``stream_source(...).take(0, L)`` is bit-for-bit the scalar SNGs'
    streams (packed: ``pack_bits`` of them), and misaligned sequential
    tiles stitch to that one-shot window — for every kind, both layouts
    and the widths that fall back past the cycle caps.
    """

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize(
        "kind,width,reaim",
        STREAM_CASES,
        ids=[f"{kind}-{width}" for kind, width, _ in STREAM_CASES],
    )
    def test_stream_source_contract(self, kind, width, reaim, packed):
        def source(length):
            return stream_source(
                kind, SOURCE_SEEDS, 3, width, SOURCE_VALUES, length, packed
            )

        def bits(out, count):
            if packed:
                assert out.dtype == np.uint64
                assert out.shape == (2, 3, (count + 63) // 64)
                return unpack_bits(out, count)
            assert out.dtype == np.uint8
            return np.asarray(out)

        length = SOURCE_LENGTH
        reference = _scalar_streams(kind, width, length)
        one_shot = source(length).take(0, length)
        expected = pack_bits(reference) if packed else reference
        assert np.array_equal(one_shot, expected)

        tiled = source(length)
        windows = ((0, 96), (96, 37), (133, length - 133))
        stitched = np.concatenate(
            [bits(tiled.take(start, count), count) for start, count in windows],
            axis=-1,
        )
        assert np.array_equal(stitched, reference)

        if not reaim:
            with pytest.raises(ConfigurationError, match="sequential"):
                source(length).take(96, 37)
            return
        total = FAR_OFFSET + 300
        full = bits(source(total).take(0, total), total)
        far = bits(source(total).take(FAR_OFFSET, 300), 300)
        assert np.array_equal(far, full[..., FAR_OFFSET:])


class TestPackedWordSources:
    """The packed word sources against their float references.

    Every word tensor is bit-for-bit ``pack_bits(uniforms < values)``
    of the uniforms the unpacked path draws, with offset resume (index
    re-aim for LFSR and Sobol, carried orbit state for chaotic) and
    clean fallbacks where the packed path does not apply.
    """

    @pytest.mark.parametrize("width", [5, 8, 16])
    def test_packed_sobol_matches_unpacked_uniforms(self, width):
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
        offsets = derive_sobol_offsets(np.array([3, 77]), 3)
        source = PackedSobolSource.create(offsets, values, width)
        assert source is not None
        for offset, length in ((0, 130), (37, 64), (100, 70001)):
            words = source.take(offset, length)
            uniforms = van_der_corput(
                offsets[..., None] + offset + np.arange(length), width
            )
            expected = (uniforms < values[..., None]).astype(np.uint8)
            assert np.array_equal(unpack_bits(words, length), expected)

    def test_packed_sobol_resumes_by_offset(self):
        offsets = derive_sobol_offsets(np.array([9]), 2)
        values = np.array([[0.3, 0.6]])
        source = PackedSobolSource.create(offsets, values, 16)
        assert source is not None
        tiles = [source.take(start, 96) for start in (0, 96, 192)]
        stitched = np.concatenate(
            [unpack_bits(t, 96) for t in tiles], axis=-1
        )
        one_shot = PackedSobolSource.create(offsets, values, 16).take(0, 288)
        assert np.array_equal(stitched, unpack_bits(one_shot, 288))

    @pytest.mark.parametrize("length", [64, 96, 250, 8192 + 777])
    def test_packed_chaotic_matches_unpacked_orbit(self, length):
        # Lengths straddle the packing block (4096 clocks) and
        # non-multiple-of-64 tails.
        base_seeds = np.array([3, 77])
        values = np.array([[0.1, 0.5, 0.9], [0.25, 0.5, 0.75]])
        source = stream_source(
            "chaotic", base_seeds, 3, 16, values, length, True
        )
        words = source.take(0, length)
        warmups = np.array([[chaotic_warmup(c) for c in range(3)]])
        uniforms = chaotic_orbit(
            derive_chaotic_intensities(base_seeds, 3), warmups, length
        )
        expected = (uniforms < values[..., None]).astype(np.uint8)
        assert np.array_equal(unpack_bits(words, length), expected)

    def test_packed_chaotic_sequential_resume_is_exact(self):
        def source():
            return stream_source(
                "chaotic", np.array([5]), 2, 16, np.array([[0.4, 0.7]]),
                288, True,
            )

        tiled = source()
        tiles = [tiled.take(start, 96) for start in (0, 96, 192)]
        stitched = np.concatenate(
            [unpack_bits(t, 96) for t in tiles], axis=-1
        )
        one_shot = source().take(0, 288)
        assert np.array_equal(stitched, unpack_bits(one_shot, 288))

    def test_packed_sobol_wide_width_falls_back(self):
        offsets = derive_sobol_offsets(np.array([3]), 2)
        assert (
            PackedSobolSource.create(offsets, np.array([[0.5, 0.5]]), 24)
            is None
        )

    def test_packed_sobol_rejects_negative_offsets(self):
        with pytest.raises(ConfigurationError):
            PackedSobolSource.create(
                np.array([[-1, 2]]), np.array([[0.5, 0.5]]), 8
            )

    def test_packed_chaotic_rejects_non_sequential_resume(self):
        source = stream_source(
            "chaotic", np.array([5]), 1, 16, np.array([[0.5]]), 256, True
        )
        source.take(0, 64)
        with pytest.raises(ConfigurationError, match="sequential"):
            source.take(0, 64)
        with pytest.raises(ConfigurationError, match="sequential"):
            source.take(128, 64)


SPECIAL_VALUES = (0.0, -0.0, 1.0, 1.5, -0.5, np.nan, np.inf, -np.inf)
SLICED_CASES = [("lfsr", width) for width in (5, 8, 16, 20)] + [
    ("sobol", width) for width in range(1, 21)
]


@st.composite
def _comparator_values(draw, width, count):
    """Values on the 2**-width grid, one float step off it, or special."""
    values = []
    for _ in range(count):
        grid = draw(st.integers(0, 1 << width)) / float(1 << width)
        step = draw(st.sampled_from((None, -np.inf, np.inf)))
        values.append(
            draw(
                st.one_of(
                    st.just(grid if step is None else np.nextafter(grid, step)),
                    st.sampled_from(SPECIAL_VALUES),
                )
            )
        )
    return np.asarray(values, dtype=float)


class TestSlicedComparatorWords:
    """Both word layouts of the cycle sources against compare-and-pack.

    The sliced layout compares integer cycle states against ``ceil(v *
    2**width)`` with a word-wide bit-sliced comparator; it must agree
    bit for bit with ``pack_bits(uniforms < values)`` on grid values,
    their float neighbours and the special values, at offsets that
    cross the period wrap and word-unaligned counts.
    """

    @pytest.mark.parametrize(
        "kind,width", SLICED_CASES, ids=[f"{k}-{w}" for k, w in SLICED_CASES]
    )
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_sliced_words_match_compare_and_pack(self, kind, width, data):
        rows = data.draw(st.integers(1, 3))
        channels = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            base = np.full(rows, data.draw(st.integers(1, 2**20)))
        else:
            base = np.asarray(
                data.draw(
                    st.lists(st.integers(1, 2**20), min_size=rows, max_size=rows)
                )
            )
        values = data.draw(
            _comparator_values(width, rows * channels)
        ).reshape(rows, channels)
        period = (1 << width) - (kind == "lfsr")
        offset = data.draw(st.integers(0, 3 * period))
        count = data.draw(
            st.sampled_from((1, 63, 64, 65, 130))
            | st.integers(1, 300).filter(lambda n: n % 64)
        )
        if kind == "lfsr":
            seeds = derive_lfsr_seeds(base, channels, width)
            uniforms = lfsr_uniform_windows(seeds, count, width, offset=offset)
            create = PackedLfsrSource.create
        else:
            seeds = derive_sobol_offsets(base, channels)
            uniforms = van_der_corput(
                seeds[..., None] + offset + np.arange(count), width
            )
            create = PackedSobolSource.create
        expected = pack_bits(uniforms < values[..., None])
        tiled = create(seeds, values, width)
        assert tiled._sliced is None
        assert np.array_equal(tiled.take(offset, count), expected)
        # Zero slicing cost routes every known-length source to slices.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_SLICED_STREAM_COST", 0)
            patch.setattr(kernels, "_SLICED_START_COST", 0)
            sliced = create(seeds, values, width, count)
        assert sliced._sliced is not None
        assert np.array_equal(sliced.take(offset, count), expected)

    def test_layout_routing_by_stream_shape(self):
        rng = np.random.default_rng(11)

        def data_bank(base_seeds, length):
            return stream_source(
                "lfsr", base_seeds, 2, 16, rng.random((base_seeds.size, 1)),
                length, True,
            )

        # Serving: 64 distinct inputs, L = 4096, one fixed base seed;
        # its coefficient bank is three distinct streams, sliced too.
        assert data_bank(np.full(64, 0x5EED), 4096)._sliced is not None
        serving_coefficients = stream_source(
            "lfsr", np.full(64, 0x5EED), 3, 16,
            np.array([[0.25, 0.625, 0.375]]), 4096, True,
        )
        assert serving_coefficients._sliced is not None
        # Long chunked streams of per-row seeds read the cycle many
        # times over, so they keep the tiled words.
        for rows, length in ((64, 2**20), (128, 2**21)):
            seeds = rng.integers(1, 2**16 - 1, rows)
            assert data_bank(seeds, length)._sliced is None
            coefficients = stream_source(
                "lfsr", seeds, 3, 16, np.array([[0.25, 0.625, 0.375]]),
                length, True,
            )
            assert coefficients._sliced is None

    def test_concurrent_plane_builds_publish_one_read_only_table(
        self, monkeypatch
    ):
        # Thread-backend shards and the serving executor race to build
        # the planes; every racer must get the one cached table.
        monkeypatch.setattr(kernels, "_CYCLE_PLANES", {})
        seeds = derive_lfsr_seeds(np.array([3, 77]), 2, 12)
        values = np.array([[0.1, 0.5], [0.25, 0.75]])
        tables = []

        def build():
            for _ in range(20):
                source = PackedLfsrSource.create(seeds, values, 12, 64)
                tables.append(source._table)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == 6 * 20
        assert all(table is tables[0] for table in tables)
        assert not tables[0].flags.writeable


class TestPassContextMemoization:
    def test_context_cached_per_fingerprint(self, circuit):
        kernels.clear_pass_context_cache()
        first = pass_context(circuit)
        assert pass_context(circuit) is first
        twin = repro.OpticalStochasticCircuit(
            repro.paper_section5a_parameters(),
            repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        # Equal design point => same cached context, no rebuild.
        assert pass_context(twin) is first
        other = repro.OpticalStochasticCircuit(
            repro.paper_section5a_parameters(),
            repro.BernsteinPolynomial([0.3, 0.6, 0.4]),
        )
        assert pass_context(other) is not first

    def test_cached_pass_is_bit_identical(self, circuit):
        # The memoized receiver/table must produce exactly the bits the
        # rebuilt-per-call path produced (same schedule, fresh cache vs
        # warm cache).
        xs = np.linspace(0, 1, 6)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(4))
        kernels.clear_pass_context_cache()
        cold = simulate_batch(circuit, xs, length=256, schedule=schedule)
        warm = simulate_batch(circuit, xs, length=256, schedule=schedule)
        assert_batches_equal(cold, warm)

    def test_overlapping_bands_raise_every_call(self, circuit):
        # Failed context builds must not be cached: the engine keeps
        # raising SimulationError for an undecodable design point.  The
        # cache key includes the circuit's concrete type, so even a
        # subclass sharing the healthy fixture's exact design point
        # (identical fingerprint) never reuses its cached context.
        class OverlappingCircuit(repro.OpticalStochasticCircuit):
            def link_budget(self):
                budget = super().link_budget()
                # Pull the '1' band down onto the '0' band: closed eye.
                return dataclasses.replace(
                    budget,
                    one_band_mw=(
                        budget.zero_band_mw[0],
                        budget.one_band_mw[1],
                    ),
                )

        kernels.clear_pass_context_cache()
        simulate_batch(circuit, [0.5], length=64)  # warm the healthy key
        bad = OverlappingCircuit(circuit.params, circuit.polynomial)
        assert bad.fingerprint() == circuit.fingerprint()
        assert not bad.link_budget().bands_separated
        for kernel in ("numpy", "packed"):
            for _ in range(2):
                with pytest.raises(repro.SimulationError, match="overlap"):
                    simulate_batch(bad, [0.5], length=64, kernel=kernel)


def _one_shot_rng_parity(circuit, kernel, sng_kind, length):
    """numpy vs *kernel* one-shot drawing from the caller's rng."""
    # Without a schedule the engine consumes the caller's rng; the
    # kernels must not perturb that consumption order.
    xs = np.linspace(0, 1, 4)
    reference = simulate_batch(
        circuit,
        xs,
        length=length,
        rng=np.random.default_rng(21),
        sng_kind=sng_kind,
    )
    other = simulate_batch(
        circuit,
        xs,
        length=length,
        rng=np.random.default_rng(21),
        sng_kind=sng_kind,
        kernel=kernel,
    )
    assert_batches_equal(reference, other)
    return reference


class TestKernelParity:
    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    @pytest.mark.parametrize("noisy", NOISE_CASES)
    def test_one_shot_parity_schedule(
        self, request, circuit, kernel, sng_kind, noisy
    ):
        circuit, noisy, min_bit_errors = _noise_case(request, circuit, noisy)
        xs = np.linspace(0, 1, 6)
        # 300 is neither a multiple of 64 nor below one word.
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(13), sng_kind=sng_kind
        )
        reference = simulate_batch(
            circuit,
            xs,
            length=300,
            noisy=noisy,
            sng_kind=sng_kind,
            schedule=schedule,
        )
        other = simulate_batch(
            circuit,
            xs,
            length=300,
            noisy=noisy,
            sng_kind=sng_kind,
            schedule=schedule,
            kernel=kernel,
        )
        assert_batches_equal(reference, other)
        assert reference.transmission_bit_errors.sum() >= min_bit_errors

    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    @pytest.mark.parametrize("length", [40, 64, 65, 128, 1000])
    def test_one_shot_parity_tails(self, circuit, kernel, length):
        xs = np.linspace(0, 1, 5)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(7))
        reference = simulate_batch(
            circuit, xs, length=length, schedule=schedule
        )
        other = simulate_batch(
            circuit, xs, length=length, schedule=schedule, kernel=kernel
        )
        assert_batches_equal(reference, other)

    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    @pytest.mark.parametrize("sng_kind", ["lfsr", "sobol"])
    def test_one_shot_parity_rng_protocol(self, circuit, kernel, sng_kind):
        _one_shot_rng_parity(circuit, kernel, sng_kind, 200)

    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    @pytest.mark.parametrize("sng_kind", ["lfsr", "sobol"])
    def test_one_shot_parity_rng_protocol_low_margin(
        self, low_margin_circuit, kernel, sng_kind
    ):
        reference = _one_shot_rng_parity(
            low_margin_circuit, kernel, sng_kind, 1000
        )
        assert reference.transmission_bit_errors.sum() > 0

    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    @pytest.mark.parametrize("sng_width", [5, 8, 16])
    def test_one_shot_parity_base_seed_and_width(
        self, circuit, kernel, sng_width
    ):
        xs = np.linspace(0, 1, 4)
        reference = simulate_batch(
            circuit, xs, length=500, base_seed=42, sng_width=sng_width
        )
        other = simulate_batch(
            circuit,
            xs,
            length=500,
            base_seed=42,
            sng_width=sng_width,
            kernel=kernel,
        )
        assert_batches_equal(reference, other)


class TestRuntimeComposition:
    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    @pytest.mark.parametrize("sng_kind", SNG_KINDS)
    @pytest.mark.parametrize("noisy", NOISE_CASES)
    def test_chunked_statistics_parity(
        self, request, circuit, kernel, sng_kind, noisy
    ):
        circuit, noisy, min_bit_errors = _noise_case(request, circuit, noisy)
        xs = np.linspace(0.05, 0.95, 4)
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(31), sng_kind=sng_kind
        )
        one_shot = simulate_batch(
            circuit,
            xs,
            length=1000,
            noisy=noisy,
            sng_kind=sng_kind,
            schedule=schedule,
        )
        reference = simulate_chunked(
            circuit,
            xs,
            length=1000,
            chunk_length=96,  # tiles deliberately not 64-aligned
            noisy=noisy,
            sng_kind=sng_kind,
            schedule=schedule,
            power_histogram_bins=16,
            workers=0,
        )
        chunked = simulate_chunked(
            circuit,
            xs,
            length=1000,
            chunk_length=96,
            noisy=noisy,
            sng_kind=sng_kind,
            schedule=schedule,
            power_histogram_bins=16,
            workers=0,
            kernel=kernel,
        )
        assert np.array_equal(
            chunked.ones_count, one_shot.output_bits.sum(axis=1)
        )
        assert np.array_equal(chunked.ones_count, reference.ones_count)
        assert np.array_equal(
            chunked.transmission_bit_errors,
            reference.transmission_bit_errors,
        )
        assert np.array_equal(
            chunked.power_histogram, reference.power_histogram
        )
        assert np.array_equal(chunked.power_bin_edges, reference.power_bin_edges)
        assert chunked.transmission_bit_errors.sum() >= min_bit_errors

    @pytest.mark.parametrize("noisy", NOISE_CASES)
    @pytest.mark.parametrize("fault", [None, FaultSpec(shift_clocks=7)])
    def test_chunked_statistics_without_the_mux_shortcut(
        self, request, monkeypatch, circuit, noisy, fault
    ):
        # A detector whose noiseless decisions differ from the mux bit
        # takes the per-clock key path; forcing that path on a healthy
        # design checks it against the numpy reference.
        circuit, noisy, min_bit_errors = _noise_case(request, circuit, noisy)
        xs = np.linspace(0.05, 0.95, 4)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(41))

        def run(kernel):
            return simulate_chunked(
                circuit,
                xs,
                length=1000,
                chunk_length=96,
                noisy=noisy,
                schedule=schedule,
                power_histogram_bins=16,
                workers=0,
                kernel=kernel,
                fault=fault,
            )

        reference = run("numpy")
        monkeypatch.setitem(
            pass_context(circuit)._flat_tables(), "decision_is_ideal", False
        )
        packed = run("packed")
        assert np.array_equal(packed.ones_count, reference.ones_count)
        assert np.array_equal(
            packed.transmission_bit_errors, reference.transmission_bit_errors
        )
        assert np.array_equal(packed.power_histogram, reference.power_histogram)
        assert packed.transmission_bit_errors.sum() >= min_bit_errors

    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    def test_sharded_parity(self, circuit, kernel):
        xs = np.linspace(0, 1, 8)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(5))
        serial = simulate_batch(circuit, xs, length=400, schedule=schedule)
        sharded = simulate_batch_sharded(
            circuit,
            xs,
            length=400,
            schedule=schedule,
            workers=2,
            backend="thread",
            kernel=kernel,
        )
        assert_batches_equal(serial, sharded)

    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    def test_run_batch_strategy_never_changes_bits(self, circuit, kernel):
        xs = np.linspace(0, 1, 6)
        reference = run_batch(
            circuit, xs, length=512, base_seed=9, config=RuntimeConfig()
        )
        direct = run_batch(
            circuit,
            xs,
            length=512,
            base_seed=9,
            config=RuntimeConfig(kernel=kernel),
        )
        assert_batches_equal(reference, direct)
        sharded = run_batch(
            circuit,
            xs,
            length=512,
            base_seed=9,
            config=RuntimeConfig(
                kernel=kernel, workers=2, backend="thread"
            ),
        )
        assert_batches_equal(reference, sharded)
        chunked_reference = run_batch(
            circuit,
            xs,
            length=512,
            base_seed=9,
            config=RuntimeConfig(chunk_length=128),
        )
        chunked = run_batch(
            circuit,
            xs,
            length=512,
            base_seed=9,
            config=RuntimeConfig(kernel=kernel, chunk_length=128),
        )
        assert np.array_equal(
            chunked.ones_count, chunked_reference.ones_count
        )
        assert np.array_equal(chunked.values, reference.values)

    def test_cache_entries_shared_across_kernels(self, circuit):
        # The kernel is excluded from the cache key on purpose: results
        # are bit-identical, so a packed request may serve a numpy-
        # computed entry (and vice versa) by identity.
        from repro.simulation.runtime import EvaluationCache

        cache = EvaluationCache()
        numpy_config = RuntimeConfig(cache=cache)
        packed_config = RuntimeConfig(cache=cache, kernel="packed")
        first = run_batch(
            circuit, [0.5], length=128, base_seed=5, config=numpy_config
        )
        second = run_batch(
            circuit, [0.5], length=128, base_seed=5, config=packed_config
        )
        assert second is first
        assert cache.hits == 1


class TestSessionAndServing:
    @pytest.mark.parametrize("kernel", NON_NUMPY_KERNELS)
    def test_evaluator_kernel_parity(self, circuit, kernel):
        spec = repro.EvalSpec(length=256, base_seed=11, noisy=False)
        reference = repro.Evaluator(circuit, spec)
        other = reference.with_kernel(kernel)
        assert other.kernel == kernel
        assert other.spec is reference.spec
        xs = np.linspace(0, 1, 16)
        assert_batches_equal(reference.evaluate(xs), other.evaluate(xs))

    def test_with_kernel_validates(self, circuit):
        session = repro.Evaluator(circuit, repro.EvalSpec(length=64))
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            session.with_kernel("bogus")

    def test_served_bits_identical_across_kernels(self, circuit):
        import asyncio

        spec = repro.EvalSpec(length=128, base_seed=17, noisy=False)
        xs = [0.1, 0.4, 0.8]

        async def serve(evaluator):
            async with repro.BatchServer(evaluator) as server:
                return await server.submit_many(xs)

        reference = asyncio.run(serve(repro.Evaluator(circuit, spec)))
        packed = asyncio.run(
            serve(
                repro.Evaluator(
                    circuit, spec, RuntimeConfig(kernel="packed")
                )
            )
        )
        assert reference == packed


def _every_key_tile(circuit, noise_for_key):
    """Bit tiles holding one flat key per row, and noise for each clock.

    Row ``k`` repeats key ``k = (level << channels) | pattern`` at every
    clock; *noise_for_key(current, threshold, screen)* returns the
    row's noise values, one per clock.
    """
    context = pass_context(circuit)
    order, channels = context.order, context.channel_count
    keys = np.arange((order + 1) << channels)
    patterns, levels = keys & ((1 << channels) - 1), keys >> channels
    currents = context.receiver.detector.photocurrent_a(
        context.table[patterns, levels]
    )
    noise = np.array(
        [
            noise_for_key(
                current, context.receiver.threshold_a, context.noise_screen_a
            )
            for current in currents
        ]
    )
    clocks = noise.shape[1]
    coeff = (patterns[:, None] >> np.arange(channels)) & 1
    data = np.arange(order)[None, :] < levels[:, None]
    coeff_bits = np.repeat(coeff[:, :, None], clocks, axis=2).astype(np.uint8)
    data_bits = np.repeat(data[:, :, None], clocks, axis=2).astype(np.uint8)
    return data_bits, coeff_bits, noise


def _boundary_noise(current, threshold, screen):
    """±(theta - I), ±screen, and one float step to either side of each."""
    values = []
    for base in (threshold - current, current - threshold, screen, -screen):
        values += [
            base,
            np.nextafter(base, np.inf),
            np.nextafter(base, -np.inf),
        ]
    return values


class TestNoiseScreen:
    """The packed receiver's noise screen changes speed, never a bit."""

    @pytest.mark.parametrize("design", ["circuit", "low_margin_circuit"])
    def test_screen_is_inside_every_key_margin(self, request, design):
        circuit = request.getfixturevalue(design)
        context = pass_context(circuit)
        currents = context.receiver.detector.photocurrent_a(
            context.table.reshape(-1)
        )
        margin = np.min(np.abs(currents - context.receiver.threshold_a))
        assert 0.0 < context.noise_screen_a < margin

    @pytest.mark.parametrize("design", ["circuit", "low_margin_circuit"])
    def test_boundary_noise_decides_like_the_reference(self, request, design):
        circuit = request.getfixturevalue(design)
        data_bits, coeff_bits, noise = _every_key_tile(
            circuit, _boundary_noise
        )
        length = noise.shape[1]
        _, reference, ideal, _ = kernels.optical_pass(
            circuit, data_bits, coeff_bits, noise
        )
        data_words, coeff_words = pack_bits(data_bits), pack_bits(coeff_bits)
        _, packed, _, _ = kernels.packed_optical_pass(
            circuit, data_words, coeff_words, noise, length
        )
        assert np.array_equal(packed, reference)
        # The tile does cross the threshold: some noisy decisions differ
        # from the noiseless ones (the mux bit here).
        assert np.any(reference != ideal)
        context = pass_context(circuit)
        ones, errors, _ = kernels.packed_tile_statistics(
            circuit,
            data_words,
            coeff_words,
            length,
            noise=kernels.screen_noise(context, noise),
        )
        assert np.array_equal(ones, reference.sum(axis=1))
        assert np.array_equal(errors, np.sum(reference != ideal, axis=1))

    @pytest.mark.parametrize("design", ["circuit", "low_margin_circuit"])
    @pytest.mark.parametrize("sng_kind", ["lfsr", "chaotic"])
    def test_zero_screen_changes_no_statistic(
        self, request, monkeypatch, design, sng_kind
    ):
        # Screen 0 makes every non-zero draw a candidate, i.e. every
        # clock is decided by the exact rule.
        circuit = request.getfixturevalue(design)
        xs = np.linspace(0.05, 0.95, 4)
        schedule = derive_seed_schedule(
            xs.size, np.random.default_rng(37), sng_kind=sng_kind
        )

        def run():
            return simulate_chunked(
                circuit,
                xs,
                length=1000,
                chunk_length=96,
                noisy=True,
                sng_kind=sng_kind,
                schedule=schedule,
                power_histogram_bins=16,
                workers=0,
                kernel="packed",
            )

        screened = run()
        flat = pass_context(circuit)._flat_tables()
        assert flat["noise_screen_a"] > 0.0
        monkeypatch.setitem(flat, "noise_screen_a", 0.0)
        exhaustive = run()
        assert np.array_equal(screened.ones_count, exhaustive.ones_count)
        assert np.array_equal(
            screened.transmission_bit_errors,
            exhaustive.transmission_bit_errors,
        )
        assert np.array_equal(
            screened.power_histogram, exhaustive.power_histogram
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_receiver_ber_conformance(self, low_margin_circuit, kernel):
        # Given its key, each noisy decision errs with probability
        # Q(|I_key - theta| / sigma); the realized errors must fall in
        # a 1 - 1e-6 Poisson band around the summed per-key rates (the
        # Poisson variance bounds the Poisson-binomial one).
        from scipy.special import erfc
        from scipy.stats import poisson

        circuit = low_margin_circuit
        xs = np.linspace(0, 1, 16)
        schedule = derive_seed_schedule(xs.size, np.random.default_rng(47))
        batch = simulate_batch(
            circuit,
            xs,
            length=4096,
            noisy=True,
            schedule=schedule,
            kernel=kernel,
        )
        (powers, _), counts = np.unique(
            np.stack(
                [
                    batch.received_power_mw.ravel(),
                    batch.select_levels.ravel().astype(float),
                ]
            ),
            axis=1,
            return_counts=True,
        )
        context = pass_context(circuit)
        sigma = circuit.params.detector.noise_current_a
        currents = context.receiver.detector.photocurrent_a(powers)
        margins = np.abs(currents - context.receiver.threshold_a) / sigma
        q = 0.5 * erfc(margins / np.sqrt(2.0))
        # Eq. 9 sizes the probe for the worst-case key; the floats of
        # that key reproduce it to rounding.
        assert np.all(q <= circuit.ber() * (1.0 + 1e-9))
        mean = float(np.sum(counts * q))
        realized = int(batch.transmission_bit_errors.sum())
        assert poisson.ppf(5e-7, mean) <= realized <= poisson.isf(5e-7, mean)
