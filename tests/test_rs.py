"""Reed-Solomon field arithmetic, bounded-distance decoding, composition."""

import itertools
import math
import random

import pytest

from sparclab.geometry import CodeSpec
from sparclab.rs import (
    Field,
    RSDecodeReason,
    RSSpec,
    bits_to_symbols,
    compose_decode,
    compose_encode,
    composite_rate,
    rs_decode,
    rs_encode,
    symbols_to_bits,
)

from oracles import nearest_codewords


@pytest.fixture(scope="module")
def gf16() -> Field:
    return Field(4)


@pytest.fixture(scope="module")
def rs_15_11(gf16) -> RSSpec:
    return RSSpec(gf16, 15, 11)


MSG = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)


class TestField:
    def test_characteristic_two(self, gf16):
        assert all(gf16.add(x, x) == 0 for x in range(16))

    def test_inverses_exhaustive(self, gf16):
        assert all(gf16.mul(x, gf16.inv(x)) == 1 for x in range(1, 16))

    def test_zero_inverse_rejected(self, gf16):
        with pytest.raises(ValueError):
            gf16.inv(0)

    def test_distributivity_spot_grid_m8(self):
        f = Field(8)
        rng = random.Random(7)
        for _ in range(300):
            a, b, c = (rng.randrange(256) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_associativity_and_commutativity_spot(self, gf16):
        rng = random.Random(1)
        for _ in range(200):
            a, b, c = (rng.randrange(16) for _ in range(3))
            assert gf16.mul(a, b) == gf16.mul(b, a)
            assert gf16.mul(gf16.mul(a, b), c) == gf16.mul(a, gf16.mul(b, c))

    def test_non_primitive_polynomial_rejected(self):
        # x^4+x^3+x^2+x+1 is irreducible but has order 5, not 15
        with pytest.raises(ValueError, match="not primitive"):
            Field(4, 0b11111)

    def test_out_of_range_elements_rejected(self, gf16):
        with pytest.raises(ValueError):
            gf16.mul(16, 1)


class TestRSSpec:
    def test_distance_and_shortening(self, gf16):
        spec = RSSpec(gf16, 12, 8)
        assert spec.d_RS == 5
        assert spec.t_RS == 2
        assert spec.shortening == 3

    def test_parameter_validation(self, gf16):
        with pytest.raises(ValueError):
            RSSpec(gf16, 16, 8)
        with pytest.raises(ValueError):
            RSSpec(gf16, 8, 9)

    def test_rate_accounting_identity(self, gf16):
        # R_out = K/L = 1 - delta + 1/L with delta = d/L, exactly
        for n_out, k_out in ((15, 11), (15, 7), (12, 8), (10, 2)):
            spec = RSSpec(gf16, n_out, k_out)
            delta = spec.d_RS / n_out
            assert spec.rate == pytest.approx(1 - delta + 1 / n_out, abs=1e-15)


class TestEncode:
    def test_systematic_prefix(self, rs_15_11):
        assert rs_encode(MSG, rs_15_11)[:11] == MSG

    def test_all_zero_message(self, rs_15_11):
        assert rs_encode((0,) * 11, rs_15_11) == (0,) * 15

    def test_linearity(self, gf16, rs_15_11):
        rng = random.Random(3)
        a = tuple(rng.randrange(16) for _ in range(11))
        b = tuple(rng.randrange(16) for _ in range(11))
        ca, cb = rs_encode(a, rs_15_11), rs_encode(b, rs_15_11)
        s = tuple(x ^ y for x, y in zip(a, b))
        assert rs_encode(s, rs_15_11) == tuple(x ^ y for x, y in zip(ca, cb))

    def test_pairwise_distance_sampled(self, rs_15_11):
        rng = random.Random(5)
        words = [rs_encode(tuple(rng.randrange(16) for _ in range(11)), rs_15_11)
                 for _ in range(500)]
        for a, b in zip(words[:-1], words[1:]):
            if a == b:
                continue
            assert sum(x != y for x, y in zip(a, b)) >= rs_15_11.d_RS

    def test_shortened_matches_zero_padded_base(self, gf16):
        short = RSSpec(gf16, 12, 8)
        base = RSSpec(gf16, 15, 11)
        msg = (5, 0, 3, 9, 9, 1, 2, 14)
        assert rs_encode(msg, short) == rs_encode((0, 0, 0) + msg, base)[3:]

    def test_length_mismatch_rejected(self, rs_15_11):
        with pytest.raises(ValueError):
            rs_encode((1, 2, 3), rs_15_11)


class TestDecode:
    def test_zero_errors(self, rs_15_11):
        res = rs_decode(rs_encode(MSG, rs_15_11), rs_15_11)
        assert res.ok and res.message == MSG and res.corrected_count == 0

    def test_every_single_error_pattern(self, rs_15_11):
        cw = rs_encode(MSG, rs_15_11)
        for pos in range(15):
            for val in (1, 7, 15):
                rx = list(cw)
                rx[pos] ^= val
                res = rs_decode(rx, rs_15_11)
                assert res.ok and res.message == MSG and res.reason == "ok"
                assert res.corrected_count == 1

    def test_every_double_error_position_pattern(self, rs_15_11):
        cw = rs_encode(MSG, rs_15_11)
        rng = random.Random(0)
        for p1, p2 in itertools.combinations(range(15), 2):
            for _ in range(2):
                rx = list(cw)
                rx[p1] ^= rng.randrange(1, 16)
                rx[p2] ^= rng.randrange(1, 16)
                res = rs_decode(rx, rs_15_11)
                assert res.ok and res.message == MSG
                assert res.corrected_count == 2

    def test_beyond_radius_never_violates_contract(self, rs_15_11):
        # with 3 errors on d=5 the decoder may fail or pick a wrong codeword,
        # but a claimed success never reports more than t_RS corrections
        cw = rs_encode(MSG, rs_15_11)
        rng = random.Random(9)
        outcomes = {"fail": 0, "wrong": 0, "lucky": 0}
        for _ in range(300):
            rx = list(cw)
            for pos in rng.sample(range(15), 3):
                rx[pos] ^= rng.randrange(1, 16)
            res = rs_decode(rx, rs_15_11)
            if not res.ok:
                outcomes["fail"] += 1
            else:
                assert res.corrected_count <= rs_15_11.t_RS
                outcomes["wrong" if res.message != MSG else "lucky"] += 1
        assert outcomes["fail"] > 0

    def test_shortened_corrects_and_preserves_distance(self, gf16):
        spec = RSSpec(gf16, 12, 8)
        rng = random.Random(11)
        msg = tuple(rng.randrange(16) for _ in range(8))
        cw = rs_encode(msg, spec)
        for p1, p2 in itertools.combinations(range(12), 2):
            rx = list(cw)
            rx[p1] ^= 3
            rx[p2] ^= 11
            res = rs_decode(rx, spec)
            assert res.ok and res.message == msg
        words = [rs_encode(tuple(rng.randrange(16) for _ in range(8)), spec)
                 for _ in range(300)]
        for a, b in zip(words[:-1], words[1:]):
            if a != b:
                assert sum(x != y for x, y in zip(a, b)) >= spec.d_RS

    @pytest.mark.parametrize("received, reason", [
        ((0, 0, 0, 0, 0), RSDecodeReason.OK),
        ((0, 0, 1, 1, 1), RSDecodeReason.LOCATOR_DEGREE),
        ((0, 0, 1, 1, 3), RSDecodeReason.ROOT_COUNT),
        ((0, 0, 1, 2, 4), RSDecodeReason.ROOT_IN_PADDING),
        ((0, 0, 1, 3, 5), RSDecodeReason.RESIDUAL_SYNDROME),
    ])
    def test_failure_reasons(self, received, reason):
        # RS(5,1) over GF(8), shortened by 2, with t_RS = 2.  Every failure
        # cause this decoder can meet occurs among its 32,768 words.  The
        # zero Forney denominator cannot: the Chien roots are distinct and
        # as many as the locator degree, so the derivative is nonzero there.
        spec = RSSpec(Field(3), 5, 1)
        res = rs_decode(received, spec)
        assert res.reason is reason
        assert res.ok == (reason is RSDecodeReason.OK)
        if not res.ok:
            assert res.message == received[:1] and res.corrected_count == 0

    @pytest.mark.parametrize("n_out, k_out", [(4, 2), (5, 1)])
    def test_bounded_distance_contract_exhaustive_gf8(self, n_out, k_out):
        # every received word: within t_RS of a codeword, that codeword's
        # message comes back; farther from all of them, a reported failure
        spec = RSSpec(Field(3), n_out, k_out)
        words = within = 0
        for word, dist, messages in nearest_codewords(spec):
            res = rs_decode(word, spec)
            if dist <= spec.t_RS:
                assert messages == [res.message] and res.ok, word
                assert res.corrected_count == dist
                within += 1
            else:
                assert not res.ok, word
            words += 1
        assert words == 8 ** n_out
        assert within == 8 ** k_out * sum(
            math.comb(n_out, e) * 7 ** e for e in range(spec.t_RS + 1))

    def test_failure_carries_received_systematic_part(self, rs_15_11):
        rx = [0] * 15
        rx[0] = 1  # weight-1 word is not a codeword; syndromes fire
        res = rs_decode([1] + [0] * 13 + [1], rs_15_11)
        if not res.ok:
            assert len(res.message) == 11


class TestComposition:
    def make(self, gf16):
        code = CodeSpec(L=15, B=16, rate=1.0)
        rs = RSSpec(gf16, 15, 11)
        return code, rs

    def test_round_trip_no_mistakes(self, gf16):
        code, rs = self.make(gf16)
        rng = random.Random(2)
        bits = "".join(rng.choice("01") for _ in range(44))
        beta = compose_encode(bits, code, rs)
        assert beta.L == 15
        out, ok = compose_decode(beta, rs)
        assert ok and out == bits

    @pytest.mark.parametrize("n_mistakes", [1, 2])
    def test_corrects_up_to_t_injected_mistakes(self, gf16, n_mistakes):
        code, rs = self.make(gf16)
        rng = random.Random(4)
        bits = "".join(rng.choice("01") for _ in range(44))
        beta = compose_encode(bits, code, rs)
        for positions in itertools.combinations(range(15), n_mistakes):
            labels = list(beta.indices)
            for p in positions:
                labels[p] ^= rng.randrange(1, 16)
            out, ok = compose_decode(labels, rs)
            assert ok and out == bits

    def test_beyond_t_not_guaranteed(self, gf16):
        code, rs = self.make(gf16)
        rng = random.Random(6)
        bits = "".join(rng.choice("01") for _ in range(44))
        beta = compose_encode(bits, code, rs)
        recovered = 0
        for _ in range(100):
            labels = list(beta.indices)
            for p in rng.sample(range(15), 3):
                labels[p] ^= rng.randrange(1, 16)
            out, ok = compose_decode(labels, rs)
            if ok and out == bits:
                recovered += 1
        assert recovered < 100

    def test_configuration_errors(self, gf16):
        rs = RSSpec(gf16, 15, 11)
        with pytest.raises(ValueError):
            compose_encode("0" * 44, CodeSpec(L=15, B=32, rate=1.0), rs)
        with pytest.raises(ValueError):
            compose_encode("0" * 44, CodeSpec(L=14, B=16, rate=1.0), rs)
        with pytest.raises(ValueError):
            compose_encode("0" * 44, CodeSpec(L=15, B=16, rate=1.0, signed=True), rs)

    def test_composite_rate(self, gf16):
        rs = RSSpec(gf16, 15, 11)
        assert composite_rate(0.9, rs) == pytest.approx(0.9 * 11 / 15, abs=1e-15)

    def test_shortened_composition_smaller_L(self, gf16):
        code = CodeSpec(L=12, B=16, rate=1.0)
        rs = RSSpec(gf16, 12, 8)
        rng = random.Random(8)
        bits = "".join(rng.choice("01") for _ in range(32))
        beta = compose_encode(bits, code, rs)
        labels = list(beta.indices)
        labels[0] ^= 7
        labels[11] ^= 2
        out, ok = compose_decode(labels, rs)
        assert ok and out == bits


class TestBitSymbolHelpers:
    def test_round_trip(self):
        assert bits_to_symbols("00010010", 4) == (1, 2)
        assert symbols_to_bits((1, 2), 4) == "00010010"

    def test_bad_length(self):
        with pytest.raises(ValueError):
            bits_to_symbols("000", 4)
