"""Codec: dictionary generation, encoding, channel, exact decoding."""

import math

import numpy as np
import pytest

from sparclab.codec import (
    Dictionary,
    EnumerationCapError,
    SparseCoefficients,
    awgn_channel,
    count_mistakes,
    decode_exhaustive,
    decoding_statistic,
    encode,
    generate_dictionary,
    normalized_power,
    synthesize,
    to_bits,
)
from sparclab.exponents import inverse_chi_square_exponent
from sparclab.geometry import ChannelSpec, CodeSpec

from oracles import brute_force_decode, suffix_table_decode

CH15 = ChannelSpec.from_snr(15.0)


def small_code(**kw) -> CodeSpec:
    return CodeSpec(L=2, B=4, rate=1.0, **kw)


class TestDictionary:
    def test_same_seed_identical(self):
        code = small_code()
        a = generate_dictionary(code, CH15, 7)
        b = generate_dictionary(code, CH15, 7)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seed_differs(self):
        code = small_code()
        a = generate_dictionary(code, CH15, 7)
        b = generate_dictionary(code, CH15, 8)
        assert not np.array_equal(a.entries, b.entries)

    def test_entries_immutable(self):
        d = generate_dictionary(small_code(), CH15, 7)
        with pytest.raises(ValueError):
            d.entries[0, 0] = 1.0

    def test_column_norm_concentration_within_envelope(self):
        # n = 500 via the rate; N = 128 columns; envelope at eps = 1e-3
        code = CodeSpec(L=8, B=16, rate=8 * math.log(16) / 500)
        assert code.n_int == 500
        d = generate_dictionary(code, CH15, 42)
        col_power = np.mean(d.entries ** 2, axis=0)
        target = CH15.P / 8
        bound = target * (1 + inverse_chi_square_exponent(
            math.log(d.num_columns / 1e-3) / d.n))
        assert col_power.max() <= bound
        assert abs(col_power.mean() - target) < 0.1 * target

    def test_entry_mean_near_zero(self):
        code = CodeSpec(L=8, B=16, rate=8 * math.log(16) / 500)
        d = generate_dictionary(code, CH15, 3)
        total = d.n * d.num_columns
        sd_of_mean = math.sqrt(d.entry_variance / total)
        assert abs(d.entries.mean()) <= 4 * sd_of_mean

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            Dictionary(entries=np.zeros((4, 7)), L=2, B=4, entry_variance=1.0)

    def test_section_and_column_access(self):
        d = generate_dictionary(small_code(), CH15, 7)
        assert d.section(1).shape == (d.n, 4)
        assert np.array_equal(d.section(1)[:, 2], d.entries[:, 6])


class TestEncode:
    def test_all_zero_bits(self):
        beta = encode("0000", small_code())
        assert beta.indices == (0, 0)
        assert beta.signs == (1, 1)

    def test_big_endian_convention(self):
        assert encode("1101", small_code()).indices == (3, 1)

    def test_signed_leading_bit_is_sign(self):
        code = small_code(signed=True)
        beta = encode("100" + "001", code)
        assert beta.indices == (0, 1)
        assert beta.signs == (-1, 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode("001", small_code())

    def test_bit_readback_identity_exhaustive(self):
        code = small_code()
        for m in range(16):
            bits = format(m, "04b")
            assert to_bits(encode(bits, code), code) == bits
        signed = small_code(signed=True)
        for m in range(64):
            bits = format(m, "06b")
            assert to_bits(encode(bits, signed), signed) == bits

    def test_accepts_int_sequences(self):
        assert encode([1, 1, 0, 1], small_code()).indices == (3, 1)


class TestSynthesize:
    def test_sign_flip_negates_codeword(self):
        code = small_code(signed=True)
        d = generate_dictionary(code, CH15, 5)
        plus = SparseCoefficients((1, 2), (1, 1))
        minus = SparseCoefficients((1, 2), (-1, -1))
        assert np.allclose(synthesize(d, minus), -synthesize(d, plus))

    def test_single_section_returns_column(self):
        code = CodeSpec(L=1, B=4, rate=1.0)
        d = generate_dictionary(code, CH15, 5)
        beta = SparseCoefficients.unsigned([2])
        assert np.array_equal(synthesize(d, beta), d.section(0)[:, 2])

    def test_power_concentrates_near_signal_power(self):
        code = CodeSpec(L=8, B=16, rate=8 * math.log(16) / 500, signed=True)
        d = generate_dictionary(code, CH15, 11)
        rng = np.random.default_rng(0)
        powers = []
        for _ in range(200):
            beta = SparseCoefficients(
                tuple(rng.integers(0, 16, 8)),
                tuple(int(s) for s in rng.choice([-1, 1], 8)))
            powers.append(normalized_power(synthesize(d, beta)))
        # single-codeword sd is P sqrt(2/n); the mean of many draws is tighter
        assert abs(np.mean(powers) - CH15.P) <= 4 * CH15.P * math.sqrt(2 / d.n)

    def test_layout_mismatch_rejected(self):
        d = generate_dictionary(small_code(), CH15, 5)
        with pytest.raises(ValueError):
            synthesize(d, SparseCoefficients.unsigned([1, 5]))


class TestAwgnChannel:
    def test_noiseless_is_exact(self):
        c = np.arange(10.0)
        assert np.array_equal(awgn_channel(c, 0.0, 1), c)

    def test_deterministic_per_seed(self):
        c = np.zeros(64)
        assert np.array_equal(awgn_channel(c, 2.0, 9), awgn_channel(c, 2.0, 9))

    def test_noise_power_matches_chi_square_spread(self):
        n, sigma2 = 4096, 2.5
        y = awgn_channel(np.zeros(n), sigma2, 123)
        spread = sigma2 * math.sqrt(2.0 / n)
        assert abs(normalized_power(y) - sigma2) <= 5 * spread

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn_channel(np.zeros(4), -1.0, 0)


class TestDecodeExhaustive:
    def test_noiseless_recovery_all_messages(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 21)
        for m in range(16):
            bits = format(m, "04b")
            y = synthesize(d, encode(bits, code))
            res = decode_exhaustive(d, y, code)
            assert to_bits(res.coefficients, code) == bits

    def test_matches_brute_force_oracle_noisy(self):
        code = CodeSpec(L=3, B=8, rate=1.0)
        for seed in range(8):
            d = generate_dictionary(code, CH15, seed)
            rng = np.random.default_rng(1000 + seed)
            truth = SparseCoefficients.unsigned(rng.integers(0, 8, 3))
            y = awgn_channel(synthesize(d, truth), 4.0, 5000 + seed)
            got = decode_exhaustive(d, y, code)
            idx, _, rss = brute_force_decode(d.entries, y, 3, 8)
            assert list(got.coefficients.indices) == idx
            assert got.residual_sq == pytest.approx(rss, abs=1e-12)

    def test_signed_matches_brute_force_oracle(self):
        code = CodeSpec(L=2, B=4, rate=1.0, signed=True)
        for seed in range(5):
            d = generate_dictionary(code, CH15, seed)
            y = awgn_channel(np.zeros(d.n), 6.0, 300 + seed)
            got = decode_exhaustive(d, y, code)
            idx, sgn, rss = brute_force_decode(d.entries, y, 2, 4, signed=True)
            assert list(got.coefficients.indices) == idx
            assert list(got.coefficients.signs) == sgn
            assert got.residual_sq == pytest.approx(rss, abs=1e-12)

    def test_argmin_beats_every_candidate(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 33)
        y = awgn_channel(synthesize(d, encode("0110", code)), 3.0, 44)
        res = decode_exhaustive(d, y, code)
        for a in range(4):
            for b in range(4):
                cand = SparseCoefficients.unsigned([a, b])
                assert res.residual_sq <= normalized_power(
                    y - synthesize(d, cand)) + 1e-12

    def test_tie_breaks_to_lowest_lexicographic(self):
        # duplicate columns create an exact tie between (0,0) and e.g. (3,3)
        ent = np.zeros((4, 8))
        ent[:, 0] = 1.0
        ent[:, 3] = 1.0
        ent[:, 4] = 2.0
        ent[:, 7] = 2.0
        d = Dictionary(entries=ent, L=2, B=4, entry_variance=1.0)
        res = decode_exhaustive(d, np.full(4, 3.0), CodeSpec(L=2, B=4, rate=1.0))
        assert res.coefficients.indices == (0, 0)

    def test_enumeration_cap(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 1)
        with pytest.raises(EnumerationCapError, match="cap 10"):
            decode_exhaustive(d, np.zeros(d.n), code, cap=10)


def _random_truth(rng, L: int, B: int, signed: bool) -> SparseCoefficients:
    signs = rng.choice([-1, 1], L) if signed else np.ones(L, dtype=int)
    return SparseCoefficients(tuple(int(i) for i in rng.integers(0, B, L)),
                              tuple(int(s) for s in signs))


def _with_duplicates(d: Dictionary) -> Dictionary:
    """Column B - 1 of every section repeats column 0: exact residual ties."""
    ent = d.entries.copy()
    for sec in range(d.L):
        ent[:, sec * d.B + d.B - 1] = ent[:, sec * d.B]
    return Dictionary(entries=ent, L=d.L, B=d.B, entry_variance=d.entry_variance)


class TestSuffixTableOracle:
    """The meet-in-the-middle decoder against the prefix/suffix-table one it replaced."""

    # (L, B, signed): odd and even L, B = 3 (not a power of two), and two
    # codes of more than 65,536 candidates, which both decoders scan in
    # several blocks.
    CODES = [(L, 3, False) for L in range(1, 7)] + \
        [(L, 3, True) for L in range(1, 6)] + \
        [(2, 4, True), (3, 8, False), (6, 8, False), (4, 16, True)]

    @staticmethod
    def assert_same(d, y, code, truth):
        got = decode_exhaustive(d, y, code)
        ref = suffix_table_decode(d, y, code)
        assert got.coefficients == ref.coefficients
        assert (count_mistakes(got.coefficients, truth)
                == count_mistakes(ref.coefficients, truth))
        assert got.residual_sq == pytest.approx(ref.residual_sq, rel=0, abs=1e-12)
        return got, ref

    @pytest.mark.parametrize("L,B,signed", CODES)
    def test_noisy_and_noiseless(self, L, B, signed):
        code = CodeSpec(L=L, B=B, rate=0.6, signed=signed)
        trials = 2 if code.candidate_count() > 65_536 else 6
        for seed in range(trials):
            d = generate_dictionary(code, CH15, 40 + seed)
            rng = np.random.default_rng(700 + seed)
            truth = _random_truth(rng, L, B, signed)
            x = synthesize(d, truth)
            # noise at a third of the signal power makes some decodes wrong
            for sigma2 in (0.0, 5.0):
                self.assert_same(d, awgn_channel(x, sigma2, 900 + seed), code, truth)

    @pytest.mark.parametrize("L,B,signed", CODES)
    def test_duplicated_columns_tie_to_lowest_index(self, L, B, signed):
        code = CodeSpec(L=L, B=B, rate=0.6, signed=signed)
        d = _with_duplicates(generate_dictionary(code, CH15, 5))
        signs = _random_truth(np.random.default_rng(11), L, B, signed).signs
        truth = SparseCoefficients((B - 1,) * L, signs)
        y = synthesize(d, truth)
        got, _ = self.assert_same(d, y, code, truth)
        assert got.coefficients == SparseCoefficients((0,) * L, truth.signs)
        assert count_mistakes(got.coefficients, truth) == L
        self.assert_same(d, awgn_channel(y, 5.0, 12), code, truth)

    @pytest.mark.parametrize("L,B,signed", [c for c in CODES if c[0] > 1])
    def test_swapped_sections_tie_to_lowest_index(self, L, B, signed):
        # Section 1 holds the columns of section 0 in reverse order, so
        # candidates (i, j, ...) and (B-1-j, B-1-i, ...) have bitwise equal
        # codewords; the score form rounds the two differently, and only
        # the direct re-score sees the exact tie.
        code = CodeSpec(L=L, B=B, rate=0.6, signed=signed)
        for seed in range(4):
            d = generate_dictionary(code, CH15, 60 + seed)
            ent = d.entries.copy()
            ent[:, B:2 * B] = ent[:, B - 1::-1]
            d = Dictionary(entries=ent, L=L, B=B, entry_variance=d.entry_variance)
            truth = _random_truth(np.random.default_rng(seed), L, B, signed)
            y = awgn_channel(synthesize(d, truth), 5.0, 80 + seed)
            if code.candidate_count() <= 65_536:
                # one table holds every candidate, so the replaced decoder
                # also sums both partners in section order
                self.assert_same(d, y, code, truth)
            # the partner is an exact minimum too, so it cannot rank lower
            got = decode_exhaustive(d, y, code).coefficients
            p0, p1 = (j + B if s < 0 else j
                      for j, s in zip(got.indices[:2], got.signs[:2]))
            partner = (B - 1 - p1 % B + p1 // B * B, B - 1 - p0 % B + p0 // B * B)
            assert (p0, p1) <= partner


class TestDecodingStatistic:
    def test_zero_on_the_sent_subset(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 10)
        beta = encode("0111", code)
        y = awgn_channel(synthesize(d, beta), 1.0, 11)
        assert decoding_statistic(d, y, beta, beta, 1.0) == 0.0

    def test_exact_decoder_output_nonpositive(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 12)
        beta = encode("0111", code)
        y = awgn_channel(synthesize(d, beta), 1.0, 13)
        res = decode_exhaustive(d, y, code)
        assert decoding_statistic(d, y, res.coefficients, beta, 1.0) <= 0.0

    def test_matches_direct_recomputation(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 14)
        beta = encode("0111", code)
        other = encode("1000", code)
        y = awgn_channel(synthesize(d, beta), 2.0, 15)
        got = decoding_statistic(d, y, other, beta, 2.0)
        direct = 0.5 * (normalized_power(y - synthesize(d, other)) / 2.0
                        - normalized_power(y - synthesize(d, beta)) / 2.0)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_zero_noise_variance_rejected(self):
        code = small_code()
        d = generate_dictionary(code, CH15, 14)
        beta = encode("0111", code)
        with pytest.raises(ValueError):
            decoding_statistic(d, np.zeros(d.n), beta, beta, 0.0)


class TestCountMistakes:
    def test_identical_is_zero(self):
        a = SparseCoefficients.unsigned([1, 2, 3])
        assert count_mistakes(a, a) == 0

    def test_all_differ(self):
        a = SparseCoefficients.unsigned([1, 2, 3])
        b = SparseCoefficients.unsigned([0, 0, 0])
        assert count_mistakes(a, b) == 3

    def test_signed_flip_counts_as_mistake(self):
        a = SparseCoefficients((1, 2), (1, 1))
        b = SparseCoefficients((1, 2), (1, -1))
        assert count_mistakes(a, b) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_mistakes(SparseCoefficients.unsigned([1]),
                           SparseCoefficients.unsigned([1, 2]))


class TestNorms:
    def test_normalized_power(self):
        assert normalized_power(np.array([3.0, 4.0])) == pytest.approx(12.5)
