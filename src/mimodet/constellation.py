"""Gray-mapped QAM/PAM constellations, their bit tables and prior splitting.

Square QAM symbols factor into two independent PAM axes: even-position
bits select the real level and odd-position bits the imaginary level,
as in the LTE (TS 36.211 section 7.1) modulation mapper.  Levels are the
unnormalized odd integers; unit-average-energy scaling is applied by the
simulation harness, never here.  Bits take values in {-1, +1} with
binary 0 mapping to +1.

BPSK is modeled as a degenerate constellation with a one-point
imaginary axis at 0 carrying no bits, so detector code can treat every
scheme uniformly.

Constellations and axes are built once per scheme and shared: every
array they hold is read-only.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModScheme",
    "PamAxis",
    "Constellation",
    "make_constellation",
    "split_prior",
]


class ModScheme(enum.Enum):
    BPSK = 2
    QAM4 = 4
    QAM16 = 16
    QAM64 = 64
    QAM256 = 256

    @property
    def order(self) -> int:
        return self.value

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.value))

    @classmethod
    def from_order(cls, order: int) -> "ModScheme":
        for scheme in cls:
            if scheme.value == order:
                return scheme
        raise ValueError(f"unsupported constellation order {order}")


# LTE TS 36.211 section 7.1 modulation mapper, transcribed per 1-D axis.
# Each entry: level -> axis bits (b0, b2, ...) as binary digits.  The
# transcription test asserts Gray adjacency rather than trusting these.
_LTE_PAM_BITS = {
    2: {
        -1: (1,),
        +1: (0,),
    },
    4: {
        -3: (1, 1),
        -1: (1, 0),
        +1: (0, 0),
        +3: (0, 1),
    },
    8: {
        -7: (1, 1, 1),
        -5: (1, 1, 0),
        -3: (1, 0, 0),
        -1: (1, 0, 1),
        +1: (0, 0, 1),
        +3: (0, 0, 0),
        +5: (0, 1, 0),
        +7: (0, 1, 1),
    },
    16: {
        -15: (1, 1, 1, 1),
        -13: (1, 1, 1, 0),
        -11: (1, 1, 0, 0),
        -9: (1, 1, 0, 1),
        -7: (1, 0, 0, 1),
        -5: (1, 0, 0, 0),
        -3: (1, 0, 1, 0),
        -1: (1, 0, 1, 1),
        +1: (0, 0, 1, 1),
        +3: (0, 0, 1, 0),
        +5: (0, 0, 0, 0),
        +7: (0, 0, 0, 1),
        +9: (0, 1, 0, 1),
        +11: (0, 1, 0, 0),
        +13: (0, 1, 1, 0),
        +15: (0, 1, 1, 1),
    },
}


@dataclass(frozen=True)
class PamAxis:
    """One 1-D PAM component of a QAM constellation.

    ``levels`` are strictly increasing; ``bits[i]`` is the {-1,+1} bit
    vector of ``levels[i]`` (empty for the degenerate single-point axis).
    """

    levels: np.ndarray  # (P,) float64
    bits: np.ndarray  # (P, t) int8 over {-1, +1}

    @property
    def size(self) -> int:
        return len(self.levels)

    @property
    def bits_per_level(self) -> int:
        return self.bits.shape[1]

    @functools.cached_property
    def pairwise(self) -> tuple[np.ndarray, np.ndarray]:
        """(upper, diff), both (P, P): ``upper[i, k]`` is k > i and ``diff[i, k]``
        is p_i - p_k off the diagonal, 1 on it."""
        lv = self.levels
        return _read_only(lv[None, :] > lv[:, None]), _read_only(
            lv[:, None] - lv[None, :] + np.eye(len(lv)))

    def indices_of(self, levels: np.ndarray) -> np.ndarray:
        """Vectorized index lookup; levels must be exact axis values."""
        if self.size == 1:
            return np.zeros(np.shape(levels), dtype=np.intp)
        # Odd-integer grid: level = 2*i - (P - 1).
        idx = np.round((np.asarray(levels) + self.size - 1) / 2.0).astype(np.intp)
        if np.any((idx < 0) | (idx >= self.size)):
            raise ValueError("level outside axis range")
        if not np.array_equal(self.levels[idx], np.asarray(levels, dtype=float)):
            raise ValueError("value is not an exact axis level")
        return idx


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _make_axis(pam_size: int) -> PamAxis:
    if pam_size == 1:
        return PamAxis(_read_only(np.zeros(1)), _read_only(np.zeros((1, 0), dtype=np.int8)))
    table = _LTE_PAM_BITS[pam_size]
    levels = np.array(sorted(table), dtype=float)
    # binary digit b -> bit value (1 - 2b): binary 0 maps to +1
    bits = np.array([[1 - 2 * b for b in table[lv]] for lv in sorted(table)], dtype=np.int8)
    return PamAxis(_read_only(levels), _read_only(bits))


@dataclass(frozen=True)
class Constellation:
    scheme: ModScheme
    real_axis: PamAxis
    imag_axis: PamAxis
    real_bit_idx: np.ndarray  # positions of real-axis bits within the q-bit vector
    imag_bit_idx: np.ndarray

    @functools.cached_property
    def order(self) -> int:
        return self.scheme.order

    @functools.cached_property
    def bits_per_symbol(self) -> int:
        return self.scheme.bits_per_symbol

    @property
    def points(self) -> np.ndarray:
        """All constellation points, enumerated in bit-lexicographic order.

        Index i corresponds to the q-bit binary pattern of i (MSB = bit 0),
        which fixes tie-breaking order across the whole package.
        """
        return self._enum[0]

    @property
    def point_bits(self) -> np.ndarray:
        """(Q, q) {-1,+1} bit vectors matching :attr:`points` order."""
        return self._enum[1]

    @property
    def level_grid(self) -> np.ndarray:
        """(P_re, P_im) index into :attr:`points` of each pair of axis level indices."""
        return self._enum[2]

    @functools.cached_property
    def _enum(self):
        q = self.bits_per_symbol
        patterns = np.arange(self.order)[:, None] >> np.arange(q - 1, -1, -1)[None, :]
        bits = (1 - 2 * (patterns & 1)).astype(np.int8)
        re = _level_indices(self.real_axis, bits[:, self.real_bit_idx])
        im = _level_indices(self.imag_axis, bits[:, self.imag_bit_idx])
        pts = self.real_axis.levels[re] + 1j * self.imag_axis.levels[im]
        grid = np.empty((self.real_axis.size, self.imag_axis.size), dtype=np.intp)
        grid[re, im] = np.arange(self.order)
        return _read_only(pts), _read_only(bits), _read_only(grid)

    @functools.cached_property
    def unit_energy_scale(self) -> float:
        """Multiplier giving E[|x|^2] = 1 over a uniform symbol draw."""
        return 1.0 / np.sqrt(np.mean(np.abs(self.points) ** 2))

    def point_indices(self, symbols: np.ndarray) -> np.ndarray:
        """Indices into :attr:`points` of an array of exact constellation points."""
        symbols = np.asarray(symbols)
        return self.level_grid[
            self.real_axis.indices_of(symbols.real), self.imag_axis.indices_of(symbols.imag)
        ]

    def bits_of_points(self, symbols: np.ndarray) -> np.ndarray:
        """Bits (..., q) of an array of exact constellation points."""
        return self.point_bits[self.point_indices(symbols)]

    def table_dump(self) -> str:
        """Text dump of (level, bits) per axis for auditing."""
        re_idx = [int(i) for i in self.real_bit_idx]
        im_idx = [int(i) for i in self.imag_bit_idx]
        lines = [f"# {self.scheme.name}: q={self.bits_per_symbol}, "
                 f"real bits at {re_idx}, imag bits at {im_idx}"]
        for name, axis in (("real", self.real_axis), ("imag", self.imag_axis)):
            for lv, bv in zip(axis.levels, axis.bits):
                binary = "".join("0" if b == 1 else "1" for b in bv) or "-"
                lines.append(f"{name} {int(lv):+d} {binary}")
        return "\n".join(lines)


def make_constellation(scheme: ModScheme | int) -> Constellation:
    """The LTE Gray-mapped constellation of a modulation scheme or order.

    Every call for a scheme returns the same object, built once with its
    point and bit tables; its arrays are read-only.
    """
    if not isinstance(scheme, ModScheme):
        scheme = ModScheme.from_order(scheme)
    return _build_constellation(scheme)


@functools.cache
def _build_constellation(scheme: ModScheme) -> Constellation:
    q = scheme.bits_per_symbol
    if scheme is ModScheme.BPSK:
        real, imag = _make_axis(2), _make_axis(1)
        real_idx, imag_idx = np.array([0], dtype=np.intp), np.array([], dtype=np.intp)
    else:
        real = imag = _make_axis(int(2 ** (q // 2)))
        real_idx, imag_idx = np.arange(0, q, 2, dtype=np.intp), np.arange(1, q, 2, dtype=np.intp)
    c = Constellation(scheme, real, imag, _read_only(real_idx), _read_only(imag_idx))
    c._enum  # build the point and bit tables now, once
    return c


def _level_indices(axis: PamAxis, bits: np.ndarray) -> np.ndarray:
    """Index of the axis level carrying each bit vector of bits (..., t)."""
    if axis.bits_per_level == 0:
        return np.zeros(bits.shape[:-1], dtype=np.intp)
    matches = (bits[..., None, :] == axis.bits).all(axis=-1)
    if np.any(matches.sum(axis=-1) != 1):
        raise ValueError(f"no axis level for bit vector {bits}")
    return np.argmax(matches, axis=-1)


def split_prior(c: Constellation, lam) -> tuple[np.ndarray, np.ndarray]:
    """Split prior LLRs (..., q) into (real-axis, imag-axis) parts along the last axis."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1:] != (c.bits_per_symbol,):
        raise ValueError(
            f"expected {c.bits_per_symbol} priors for {c.scheme.name}, got shape {lam.shape}"
        )
    return lam[..., c.real_bit_idx], lam[..., c.imag_bit_idx]
