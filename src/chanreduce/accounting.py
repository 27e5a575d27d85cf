"""Exact parameter and storage-size accounting for model descriptors.

Each layer kind counts its own (learnable, buffer) scalars in ``scalars()``.
Sizes are stored-scalar counts (learnable + buffers) times bytes per scalar.
1 MB = 2**20 bytes, 1 KB = 1024 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import ModelSpec, partition_macroblocks

BYTES_PER_SCALAR = 4
MB = 1024 * 1024


@dataclass(frozen=True)
class BlockUsage:
    block_id: int
    params: int
    bytes: int


@dataclass(frozen=True)
class SizeReport:
    parameter_count: int
    buffer_count: int
    size_bytes: int
    per_block_breakdown: tuple[BlockUsage, ...] = ()

    @property
    def size_mb(self) -> float:
        return self.size_bytes / MB

    def to_dict(self) -> dict:
        return {"parameter_count": self.parameter_count,
                "buffer_count": self.buffer_count,
                "size_bytes": self.size_bytes,
                "per_block_breakdown": [[b.block_id, b.params, b.bytes]
                                        for b in self.per_block_breakdown]}


def count_parameters(spec: ModelSpec) -> SizeReport:
    """Count every layer exactly; breakdown rows cover the conv macroblocks, with
    head layers (classifier) accounted in the totals only. A spec with no
    macroblocks gets an empty breakdown."""
    per_layer = [layer.scalars() for layer in spec.layers]
    total_params = sum(p for p, _ in per_layer)
    total_buffers = sum(b for _, b in per_layer)

    try:
        blocks = partition_macroblocks(spec).blocks
    except ValueError:
        blocks = ()
    breakdown: list[BlockUsage] = []
    for block in blocks:
        start, stop = block.layer_range
        params = sum(p for p, _ in per_layer[start:stop])
        buffers = sum(b for _, b in per_layer[start:stop])
        breakdown.append(BlockUsage(block.index, params, (params + buffers) * BYTES_PER_SCALAR))

    size = (total_params + total_buffers) * BYTES_PER_SCALAR
    return SizeReport(total_params, total_buffers, size, tuple(breakdown))


def saving_percent(base: SizeReport, reduced: SizeReport) -> float:
    """100 * (1 - reduced/base) measured on stored bytes."""
    if base.size_bytes == 0:
        raise ValueError("baseline size is zero; saving undefined")
    return 100.0 * (1.0 - reduced.size_bytes / base.size_bytes)
