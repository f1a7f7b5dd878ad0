"""Superposition codec: dictionary, encoder, AWGN channel, exact decoder.

Norms are normalized throughout: |a|^2 = (1/n) sum a_i^2, and the matching
inner product a.b = (1/n) sum a_i b_i.

Gaussian sampling is pinned to a fixed, documented transform so dictionaries
and noise are bit-reproducible per seed: draw 53-bit uniform integers k from
a PCG64 stream, map to u = (k + 0.5) / 2^53 in (0, 1), and apply the
rational-approximation normal quantile (see normal.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ChannelSpec, CodeSpec
from .normal import standard_normal_from_uniform

DEFAULT_ENUMERATION_CAP = 20_000_000
# Most floats in one block of decoder scores (perfbench/layers.py reads it).
_SUFFIX_BLOCK_TARGET = 65_536


class EnumerationCapError(RuntimeError):
    """Exhaustive decoding would enumerate more candidates than the cap."""


def normalized_power(x: np.ndarray) -> float:
    """|x|^2 with the (1/n) normalization."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.mean(x * x))


def _seeded_normals(shape: tuple[int, ...], seed) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return standard_normal_from_uniform((k + 0.5) * 2.0 ** -53)


@dataclass(frozen=True)
class Dictionary:
    """Immutable n x (L B) Gaussian design with section layout."""

    entries: np.ndarray
    L: int
    B: int
    entry_variance: float

    def __post_init__(self):
        if self.entries.shape[1] != self.L * self.B:
            raise ValueError("entry matrix does not match the section layout")
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def num_columns(self) -> int:
        return self.L * self.B

    def section(self, i: int) -> np.ndarray:
        """The (n, B) column block of section i."""
        return self.entries[:, i * self.B:(i + 1) * self.B]


@dataclass(frozen=True)
class SparseCoefficients:
    """One selected column per section, with a sign when the code is signed."""

    indices: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.signs):
            raise ValueError("indices and signs must have equal length")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if any(i < 0 for i in self.indices):
            raise ValueError("indices must be nonnegative")

    @classmethod
    def unsigned(cls, indices) -> "SparseCoefficients":
        indices = tuple(int(i) for i in indices)
        return cls(indices, (1,) * len(indices))

    @property
    def L(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class DecodeResult:
    coefficients: SparseCoefficients
    residual_sq: float        # normalized |y - X beta|^2


def generate_dictionary(code: CodeSpec, channel: ChannelSpec, seed) -> Dictionary:
    """Draw i.i.d. mean-zero entries of variance P/L from the seeded stream."""
    n = code.n_int
    if n < 1 or code.L < 1 or code.B < 2:
        raise ValueError("dictionary shape must be nonempty")
    var = channel.P / code.L
    entries = math.sqrt(var) * _seeded_normals((n, code.L * code.B), seed)
    return Dictionary(entries=entries, L=code.L, B=code.B, entry_variance=var)


def _as_bit_tuple(bits) -> tuple[int, ...]:
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise ValueError("bit string may contain only 0 and 1")
        return tuple(int(c) for c in bits)
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError("bits must be 0 or 1")
    return out


def encode(bits, code: CodeSpec) -> SparseCoefficients:
    """Map an input bit string to one selected term per section.

    Each section consumes a big-endian substring giving the column index;
    signed codes prepend one sign bit per section (0 means +1).
    """
    bit_tuple = _as_bit_tuple(bits)
    if len(bit_tuple) != code.input_bits:
        raise ValueError(
            f"expected {code.input_bits} bits, got {len(bit_tuple)}")
    per = code.bits_per_section
    indices, signs = [], []
    for i in range(code.L):
        chunk = bit_tuple[i * per:(i + 1) * per]
        if code.signed:
            signs.append(-1 if chunk[0] else 1)
            chunk = chunk[1:]
        else:
            signs.append(1)
        indices.append(int("".join(map(str, chunk)), 2) if chunk else 0)
    return SparseCoefficients(tuple(indices), tuple(signs))


def to_bits(coeffs: SparseCoefficients, code: CodeSpec) -> str:
    """Inverse of encode: read the bit string back from the coefficients."""
    if coeffs.L != code.L:
        raise ValueError("coefficient length does not match the code")
    width = code.bits_per_section - (1 if code.signed else 0)
    parts = []
    for j, s in zip(coeffs.indices, coeffs.signs):
        if j >= code.B:
            raise ValueError(f"index {j} outside section size {code.B}")
        word = format(j, f"0{width}b") if width else ""
        if code.signed:
            word = ("1" if s < 0 else "0") + word
        parts.append(word)
    return "".join(parts)


def synthesize(dic: Dictionary, coeffs: SparseCoefficients) -> np.ndarray:
    """Superpose the selected (signed) columns into a codeword."""
    if coeffs.L != dic.L or any(j >= dic.B for j in coeffs.indices):
        raise ValueError("coefficients do not match the dictionary layout")
    cols = dic.entries[:, [i * dic.B + j for i, j in enumerate(coeffs.indices)]]
    return cols @ np.asarray(coeffs.signs, dtype=np.float64)


def awgn_channel(codeword: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """Add independent mean-zero Gaussian noise of variance sigma2."""
    if sigma2 < 0:
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    codeword = np.asarray(codeword, dtype=np.float64)
    if sigma2 == 0.0:
        return codeword.copy()
    return codeword + math.sqrt(sigma2) * _seeded_normals(codeword.shape, seed)


def _rank_to_coefficients(rank: int, L: int, B: int, signed: bool) -> SparseCoefficients:
    base = 2 * B if signed else B
    points = []
    for _ in range(L):
        points.append(rank % base)
        rank //= base
    points.reverse()
    indices = tuple(p % B for p in points)
    signs = tuple(-1 if p >= B else 1 for p in points)
    return SparseCoefficients(indices, signs)


def count_mistakes(decoded: SparseCoefficients, truth: SparseCoefficients) -> int:
    """Sections whose selected term (or sign, for signed codes) differs."""
    if decoded.L != truth.L:
        raise ValueError("coefficient vectors come from different codes")
    return sum(1 for a, b, sa, sb in zip(decoded.indices, truth.indices,
                                         decoded.signs, truth.signs)
               if a != b or sa != sb)


def _partial_codewords(atoms: np.ndarray, sections) -> np.ndarray:
    """Every partial codeword of the given sections, in code-point order.

    Row r sums, in section order, the contributions whose code points spell
    r in base atoms.shape[1], the first section most significant.
    """
    n = atoms.shape[2]
    table = np.zeros((1, n))
    for sec in sections:
        table = (table[:, None, :] + atoms[sec][None, :, :]).reshape(-1, n)
    return table


def _direct_rss(atoms: np.ndarray, y: np.ndarray, points) -> np.ndarray:
    """sum((y - c)^2) per candidate, with c summed in section order.

    points[sec] holds every candidate's code point in section sec.
    """
    c = atoms[0, points[0]]
    for sec in range(1, atoms.shape[0]):
        c = c + atoms[sec, points[sec]]
    return np.sum((y - c) ** 2, axis=1)


def decode_exhaustive(dic: Dictionary, y: np.ndarray, code: CodeSpec,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> DecodeResult:
    """Global least-squares search over every admissible coefficient vector.

    Meet in the middle: each candidate is c = a + b, with a a partial
    codeword of the first L // 2 sections and b one of the rest, and its
    residual |y - c|^2 = |y - a|^2 + |b|^2 - 2 (y - a).b comes from one
    matrix product over blocks of head rows.  Those scores round
    differently from a direct residual, so every candidate within a
    rounding slack of the smallest score is re-scored directly, and the
    result is the exact minimum of the direct residuals; exact ties resolve
    to the lowest lexicographic code-point sequence.
    """
    if code.L != dic.L or code.B != dic.B:
        raise ValueError("code and dictionary disagree on the layout")
    total = code.candidate_count()
    if total > cap:
        raise EnumerationCapError(
            f"{total} candidates exceed the enumeration cap {cap}")

    y = np.asarray(y, dtype=np.float64)
    n, L = dic.n, code.L
    # atoms[sec, p] is the contribution of code point p in section sec: p < B
    # selects column p with sign +1, p >= B column p - B negated.  This fixes
    # the lexicographic order used for tie-breaks.
    cols = dic.entries.T.reshape(L, code.B, n)
    atoms = np.concatenate([cols, -cols], axis=1) if code.signed else cols
    base = atoms.shape[1]

    # Candidate rank = head_rank * len(tail) + tail_rank.  The score is the
    # inner product of the rows [-2 (y - a), |y - a|^2, 1] and [b, 1, |b|^2].
    head = y - _partial_codewords(atoms, range(L // 2))
    tail = _partial_codewords(atoms, range(L // 2, L))
    head_aug = np.column_stack([-2.0 * head, np.einsum("ij,ij->i", head, head),
                                np.ones(len(head))])
    tail_aug = np.column_stack([tail, np.ones(len(tail)),
                                np.einsum("ij,ij->i", tail, tail)])
    # Every |y - a|, |b| and |y - c| is at most sqrt(scale), so either form
    # of a score is within a few (n + L) * eps * scale of the exact value;
    # the slack keeps every exact minimiser among the re-scored candidates.
    largest_atoms = np.sqrt(np.max(np.einsum("spi,spi->sp", atoms, atoms), axis=1))
    scale = (math.sqrt(y @ y) + float(largest_atoms.sum())) ** 2
    slack = 8.0 * (n + L) * np.finfo(np.float64).eps * scale

    rows = max(1, _SUFFIX_BLOCK_TARGET // len(tail))
    scores = np.empty((min(rows, len(head)), len(tail)))
    approx_min = best_rss = math.inf
    best_rank = -1
    for start in range(0, len(head), rows):
        block = scores[:min(rows, len(head) - start)]
        np.matmul(head_aug[start:start + rows], tail_aug.T, out=block)
        low = float(block.min())
        if low <= approx_min + slack:
            approx_min = min(approx_min, low)
            ranks = start * len(tail) + np.flatnonzero(block <= approx_min + slack)
            rss = _direct_rss(atoms, y, np.unravel_index(ranks, (base,) * L))
            k = int(np.argmin(rss))
            if rss[k] < best_rss:
                best_rss, best_rank = float(rss[k]), int(ranks[k])

    return DecodeResult(_rank_to_coefficients(best_rank, L, code.B, code.signed),
                        best_rss / n)


def decoding_statistic(dic: Dictionary, y: np.ndarray, S: SparseCoefficients,
                       S_star: SparseCoefficients, sigma2: float) -> float:
    """Half the residual-power difference of S against the sent S_star, in nats."""
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    r_s = normalized_power(y - synthesize(dic, S))
    r_star = normalized_power(y - synthesize(dic, S_star))
    return 0.5 * (r_s - r_star) / sigma2
