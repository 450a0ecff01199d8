"""Sensing payload models: raw frames, JPEG tables, feature vectors, and
token-based vector quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .schema import bounded, check_bounds, check_value

# The fields each sensing mode reads besides mode and qos. A SenseConfig
# must set each of its mode's fields whose default is None.
MODE_FIELDS = {
    "raw": (),
    "jpeg": ("jpeg_quality",),
    "semantic_feature": ("feature_dim", "feature_bits"),
    "vq": ("vit_grid",),
}

# Measured single-frame JPEG sizes for a 256x256 preview stream, in bytes.
DEFAULT_JPEG_BYTES: Dict[int, int] = {95: 80000, 80: 33380, 60: 22280}


@dataclass(frozen=True)
class SenseConfig:
    """What the robot uplinks per frame and with which delivery class."""

    mode: str = bounded("vq", choices=tuple(MODE_FIELDS))
    jpeg_quality: Optional[int] = bounded(None, choices=(95, 80, 60))
    vit_grid: Tuple[int, int] = bounded((1, 1), choices=((1, 1), (1, 2), (1, 3)))
    feature_dim: Optional[int] = bounded(None, lo=1, integer=True)
    feature_bits: Optional[int] = bounded(None, choices=(4, 8, 16, 32))
    qos: str = bounded("best_effort", choices=("reliable", "best_effort"))

    def __post_init__(self):
        check_bounds(self)
        for name in MODE_FIELDS[self.mode]:  # the mode reads them: None fails
            if getattr(self, name) is None:
                check_value(name, None, self.__dataclass_fields__[name].metadata)


@dataclass(frozen=True)
class PayloadParams:
    """Frame geometry and per-mode accounting constants."""

    frame_width: int = bounded(1920, lo=1, integer=True)
    frame_height: int = bounded(1080, lo=1, integer=True)
    jpeg_bytes: Dict[int, int] = field(default_factory=lambda: dict(DEFAULT_JPEG_BYTES))
    tokens_per_tile: int = bounded(1024, lo=1, integer=True)
    codebook_size: int = bounded(8192, lo=1, integer=True)
    tile_overhead_bytes: int = bounded(56, lo=0, integer=True)

    __post_init__ = check_bounds


def index_bits(codebook_size: int) -> int:
    """Bits needed to address one of ``codebook_size`` codewords."""
    if codebook_size < 1:
        raise ValueError("codebook_size must be positive")
    return math.ceil(math.log2(codebook_size)) if codebook_size > 1 else 0


def payload_bytes(cfg: SenseConfig, params: PayloadParams, *, include_overhead: bool = True) -> int:
    """Uplink bytes for one frame under ``cfg``.

    raw:              width * height * 3 (24-bit RGB)
    jpeg:             measured table lookup by quality
    semantic_feature: ceil(dim * bits / 8)
    vq:               tiles * (ceil(tokens * index_bits / 8) + overhead)

    ``include_overhead=False`` reports the pure token bit count for vq.
    """
    if cfg.mode == "raw":
        return params.frame_width * params.frame_height * 3
    if cfg.mode == "jpeg":
        try:
            return int(params.jpeg_bytes[cfg.jpeg_quality])
        except KeyError:
            raise ValueError(f"no payload entry for jpeg quality {cfg.jpeg_quality}") from None
    if cfg.mode == "semantic_feature":
        return (cfg.feature_dim * cfg.feature_bits + 7) // 8
    tiles = cfg.vit_grid[0] * cfg.vit_grid[1]
    bits = params.tokens_per_tile * index_bits(params.codebook_size)
    per_tile = (bits + 7) // 8
    if include_overhead:
        per_tile += params.tile_overhead_bytes
    return tiles * per_tile


@dataclass(frozen=True)
class Codebook:
    """Vector-quantization codebook of ``size`` codewords of dimension ``dim``."""

    codewords: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=float)
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] < 1:
            raise ValueError("codewords must be a nonempty 2D array")
        object.__setattr__(self, "codewords", cw)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]


def vq_encode(x: Sequence[float], codebook: Codebook) -> int:
    """Index of the codeword nearest to ``x`` in squared Euclidean distance;
    exact ties resolve to the lowest index."""
    v = np.asarray(x, dtype=float)
    if v.shape != (codebook.dim,):
        raise ValueError(f"vector of shape {v.shape} vs codebook dim {codebook.dim}")
    diff = codebook.codewords - v
    return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))


def vq_decode(index: int, codebook: Codebook) -> np.ndarray:
    if not 0 <= index < codebook.size:
        raise ValueError(f"index {index} outside codebook of size {codebook.size}")
    return codebook.codewords[index].copy()
