"""Payload accounting and VQ codebooks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r2xsim.sensing import (
    Codebook,
    PayloadParams,
    SenseConfig,
    index_bits,
    payload_bytes,
    vq_decode,
    vq_encode,
)


class TestSenseConfig:
    def test_defaults(self):
        cfg = SenseConfig()
        assert cfg.mode == "vq" and cfg.vit_grid == (1, 1) and cfg.qos == "best_effort"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="video"),
            dict(mode="vq", qos="bulk"),
            dict(mode="jpeg"),
            dict(mode="jpeg", jpeg_quality=75),
            dict(mode="vq", vit_grid="2x2"),
            dict(mode="semantic_feature"),
            dict(mode="semantic_feature", feature_dim=0, feature_bits=8),
            dict(mode="semantic_feature", feature_dim=64, feature_bits=12),
            dict(mode="vq", vit_grid="1x3"),  # a grid is a pair, never "AxB"
            dict(mode="vq", vit_grid=None),
            dict(mode="semantic_feature", feature_dim=2.5, feature_bits=8),
            dict(mode="semantic_feature", feature_dim=True, feature_bits=8),
            dict(mode="semantic_feature", feature_dim=64),
            dict(mode=[]),
            # an equal value of another type is not the choice
            dict(mode="jpeg", jpeg_quality=80.0),
            dict(mode="semantic_feature", feature_dim=64, feature_bits=8.0),
            dict(mode="vq", vit_grid=(1.0, 2.0)),
            dict(mode="vq", vit_grid=(True, 1)),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SenseConfig(**kwargs)


class TestVitGrid:
    """A tile grid is one of SenseConfig's integer pairs. The "AxB" strings
    and lists that configuration messages once carried, and pairs of floats
    or bools, are refused, never parsed or truncated."""

    GRID_ERROR = r"^vit_grid .* is not one of \(\(1, 1\), \(1, 2\), \(1, 3\)\)$"

    @pytest.mark.parametrize("grid", [(1, 1), (1, 2), (1, 3)])
    def test_accepted_grids(self, grid):
        params = PayloadParams()
        cfg = SenseConfig(mode="vq", vit_grid=grid)
        assert cfg.vit_grid == grid
        assert payload_bytes(cfg, params) == grid[1] * payload_bytes(SenseConfig(), params)

    @pytest.mark.parametrize("bad", ["1x3", "1X2", [1, 1], (2, 2), "1x", "3", "1x2x3", (0, 1), (1, 0)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match=self.GRID_ERROR):
            SenseConfig(mode="vq", vit_grid=bad)

    @pytest.mark.parametrize(
        "bad", ["1x0_2", " 1 x 2 ", "1x2 ", "1x2\n", "+1x2", "1x-2", "\u0661x\u0662", "1\uff58 2", "1x\u00b2", "x"]
    )
    def test_refuses_all_but_ascii_digits(self, bad):
        """No string is a grid, not even one that int() would read."""
        with pytest.raises(ValueError, match=self.GRID_ERROR):
            SenseConfig(mode="vq", vit_grid=bad)

    @pytest.mark.parametrize(
        "bad",
        [[1.5, 2.9], [1.0, 2.0], [True, 2], (1, False), (1.0, 2.0), (True, 1), (math.inf, 1), [1, 2, 3], [1], {}, None, 12],
    )
    def test_refuses_non_integer_pairs(self, bad):
        """A float or bool element, or a pair of the wrong length, is refused
        rather than compared equal to an integer pair."""
        with pytest.raises(ValueError, match=self.GRID_ERROR):
            SenseConfig(mode="vq", vit_grid=bad)


class TestIndexBits:
    @pytest.mark.parametrize(
        "size,bits", [(1, 0), (2, 1), (3, 2), (4, 2), (4096, 12), (8192, 13)]
    )
    def test_values(self, size, bits):
        assert index_bits(size) == bits

    def test_invalid(self):
        with pytest.raises(ValueError):
            index_bits(0)

    @given(size=st.integers(2, 1024))
    @settings(max_examples=60, deadline=None)
    def test_covers_address_space(self, size):
        b = index_bits(size)
        assert 2 ** (b - 1) < size <= 2**b


class TestPayloadBytes:
    def test_raw_full_hd(self):
        assert payload_bytes(SenseConfig(mode="raw"), PayloadParams()) == 6_220_800

    @pytest.mark.parametrize("quality,size", [(95, 80000), (80, 33380), (60, 22280)])
    def test_jpeg_table(self, quality, size):
        cfg = SenseConfig(mode="jpeg", jpeg_quality=quality)
        assert payload_bytes(cfg, PayloadParams()) == size

    def test_jpeg_custom_table_and_missing_entry(self):
        params = PayloadParams(jpeg_bytes={80: 12345})
        cfg80 = SenseConfig(mode="jpeg", jpeg_quality=80)
        assert payload_bytes(cfg80, params) == 12345
        cfg95 = SenseConfig(mode="jpeg", jpeg_quality=95)
        with pytest.raises(ValueError):
            payload_bytes(cfg95, params)

    def test_semantic_feature_rounds_up(self):
        cfg = SenseConfig(mode="semantic_feature", feature_dim=512, feature_bits=8)
        assert payload_bytes(cfg, PayloadParams()) == 512
        cfg = SenseConfig(mode="semantic_feature", feature_dim=129, feature_bits=4)
        assert payload_bytes(cfg, PayloadParams()) == 65  # 516 bits

    @pytest.mark.parametrize(
        "grid,size", [((1, 1), 1720), ((1, 2), 3440), ((1, 3), 5160)], ids=["1x1-1720", "1x2-3440", "1x3-5160"]
    )
    def test_vq_with_overhead(self, grid, size):
        cfg = SenseConfig(mode="vq", vit_grid=grid)
        assert payload_bytes(cfg, PayloadParams()) == size

    def test_vq_pure_token_bits(self):
        cfg = SenseConfig(mode="vq", vit_grid=(1, 1))
        assert payload_bytes(cfg, PayloadParams(), include_overhead=False) == 1664

    def test_vq_smaller_codebook(self):
        cfg = SenseConfig(mode="vq", vit_grid=(1, 1))
        params = PayloadParams(codebook_size=4096)
        assert payload_bytes(cfg, params) == 1024 * 12 // 8 + 56

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PayloadParams(frame_width=0)
        with pytest.raises(ValueError):
            PayloadParams(tokens_per_tile=0)
        with pytest.raises(ValueError):
            PayloadParams(tile_overhead_bytes=-1)


class TestCodebook:
    def small(self):
        return Codebook(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]))

    def test_shape_properties(self):
        cb = self.small()
        assert cb.size == 4 and cb.dim == 2 and index_bits(cb.size) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros(3))
        with pytest.raises(ValueError):
            Codebook(np.zeros((0, 2)))


class TestVqEncode:
    def brute_force(self, v, cb):
        best = min(
            range(cb.size),
            key=lambda i: (sum((float(a) - float(b)) ** 2 for a, b in zip(cb.codewords[i], v)), i),
        )
        return best

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        cb = Codebook(rng.normal(size=(32, 4)))
        for _ in range(300):
            v = rng.normal(size=4)
            assert vq_encode(v, cb) == self.brute_force(v, cb)

    def test_duplicate_codewords_lowest_index(self):
        cb = Codebook(np.array([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))
        assert vq_encode([1.0, 1.0], cb) == 1
        assert vq_encode([1.1, 0.9], cb) == 1

    def test_symmetric_tie_lowest_index(self):
        cb = Codebook(np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]]))
        assert vq_encode([0.0, 0.0], cb) == 0

    def test_integer_grid_ties(self):
        cb = Codebook(np.array([[0.0], [2.0], [4.0]]))
        assert vq_encode([1.0], cb) == 0  # tie 0 vs 1
        assert vq_encode([3.0], cb) == 1  # tie 1 vs 2

    def test_shape_mismatch(self):
        cb = Codebook(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            vq_encode([0.0, 0.0], cb)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        cb = Codebook(np.round(rng.normal(size=(k, d)) * 2) / 2)  # coarse grid -> ties
        v = np.round(rng.normal(size=d) * 2) / 2
        assert vq_encode(v, cb) == self.brute_force(v, cb)


class TestVqDecode:
    def test_round_trip_on_codewords(self):
        rng = np.random.default_rng(5)
        cb = Codebook(rng.normal(size=(16, 3)))
        for i in range(cb.size):
            assert vq_encode(cb.codewords[i], cb) == i
            assert np.array_equal(vq_decode(i, cb), cb.codewords[i])

    def test_returns_copy(self):
        cb = Codebook(np.array([[1.0, 2.0]]))
        out = vq_decode(0, cb)
        out[0] = 99.0
        assert cb.codewords[0, 0] == 1.0

    def test_bounds(self):
        cb = Codebook(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            vq_decode(2, cb)
        with pytest.raises(ValueError):
            vq_decode(-1, cb)
