"""Reed-Solomon outer code over GF(2^m), with shortening and composition.

Systematic encoding (parity appended after the message), syndrome decoding
with Berlekamp-Massey, Chien search, and Forney values; bounded-distance
contract.  The base code has length q - 1; shorter codes are obtained by
shortening (fixing leading message symbols to zero), which preserves the
minimum distance.  Composition maps outer codeword symbols to the section
labels of an inner superposition code with B = 2^m.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .codec import SparseCoefficients
from .geometry import CodeSpec

# Primitive polynomials (bit-packed, high term included), one per degree.
PRIMITIVE_POLYNOMIALS = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


class Field:
    """GF(2^m) arithmetic via exp/log tables.

    Construction walks the full multiplicative cycle of the generator x and
    rejects the polynomial unless all q - 1 nonzero elements appear, so the
    table entries are verified primitive.
    """

    def __init__(self, m: int, primitive_polynomial: int | None = None):
        if not 2 <= m <= 16:
            raise ValueError(f"extension degree must be in [2, 16], got {m}")
        self.m = m
        self.q = 1 << m
        self.poly = (PRIMITIVE_POLYNOMIALS[m] if primitive_polynomial is None
                     else primitive_polynomial)
        exp = [0] * (2 * (self.q - 1))
        log = [0] * self.q
        x = 1
        seen = set()
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            seen.add(x)
            x <<= 1
            if x & self.q:
                x ^= self.poly
        if len(seen) != self.q - 1 or x != 1:
            raise ValueError(
                f"polynomial {self.poly:#x} is not primitive for GF(2^{m})")
        for i in range(self.q - 1, 2 * (self.q - 1)):
            exp[i] = exp[i - (self.q - 1)]
        self._exp = exp
        self._log = log

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise ValueError(f"element {a} outside GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def pow_alpha(self, k: int) -> int:
        """alpha^k for any integer k."""
        return self._exp[k % (self.q - 1)]

    # Polynomials are coefficient lists in ascending order, p[0] constant.

    def poly_eval(self, p: list[int], x: int) -> int:
        acc = 0
        for c in reversed(p):
            acc = self.mul(acc, x) ^ c
        return acc

    def poly_mul(self, p: list[int], r: list[int]) -> list[int]:
        out = [0] * (len(p) + len(r) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(r):
                    out[i + j] ^= self.mul(a, b)
        return out


class RSDecodeReason(str, enum.Enum):
    """Why rs_decode returned what it did: ok, or the check that rejected the word."""

    OK = "ok"
    LOCATOR_DEGREE = "locator_degree"          # degree 0 or above t_RS
    ROOT_COUNT = "root_count"                  # Chien roots != locator degree
    ROOT_IN_PADDING = "root_in_padding"        # error inside the shortening
    FORNEY_DENOMINATOR = "forney_denominator"  # zero locator derivative
    RESIDUAL_SYNDROME = "residual_syndrome"    # corrected word not a codeword


@dataclass(frozen=True)
class RSDecodeResult:
    ok: bool
    message: tuple[int, ...]
    corrected_count: int
    reason: RSDecodeReason = RSDecodeReason.OK


class RSSpec:
    """(n_out, K_out) Reed-Solomon code, shortened from base length q - 1."""

    def __init__(self, field: Field, n_out: int, K_out: int):
        self.field = field
        q = self.field.q
        if not 1 <= K_out <= n_out <= q - 1:
            raise ValueError(
                f"need 1 <= K_out <= n_out <= {q - 1}, got ({n_out}, {K_out})")
        self.n_out = n_out
        self.K_out = K_out
        self.d_RS = n_out - K_out + 1
        self.shortening = (q - 1) - n_out
        self.t_RS = (self.d_RS - 1) // 2
        self._generator = self._generator_poly()

    def _generator_poly(self) -> list[int]:
        g = [1]
        for i in range(self.d_RS - 1):
            g = self.field.poly_mul(g, [self.field.pow_alpha(i), 1])
        return g

    @property
    def rate(self) -> float:
        return self.K_out / self.n_out


def rs_encode(message, spec: RSSpec) -> tuple[int, ...]:
    """Systematic codeword: the message followed by parity symbols."""
    message = tuple(int(s) for s in message)
    if len(message) != spec.K_out:
        raise ValueError(f"expected {spec.K_out} symbols, got {len(message)}")
    spec.field._check(*message)

    f = spec.field
    n_parity = spec.d_RS - 1
    # Synthetic division of message * x^parity by the generator; polynomial
    # coefficients here run highest degree first (message order).
    gen_desc = list(reversed(spec._generator))
    rem = list(message) + [0] * n_parity
    for i in range(len(message)):
        coef = rem[i]
        if coef:
            for j in range(1, len(gen_desc)):
                rem[i + j] ^= f.mul(gen_desc[j], coef)
    return message + tuple(rem[len(message):])


def _syndromes(received: list[int], spec: RSSpec) -> list[int]:
    f = spec.field
    n = len(received)
    out = []
    for j in range(spec.d_RS - 1):
        x = f.pow_alpha(j)
        acc = 0
        for p, c in enumerate(received):
            # symbol at list position p multiplies x^(n-1-p)
            acc ^= f.mul(c, f.pow_alpha((j * (n - 1 - p)) % (f.q - 1))) if c else 0
        out.append(acc)
    return out


def _berlekamp_massey(synd: list[int], f: Field) -> list[int]:
    lam = [1]
    prev = [1]
    L = 0
    m = 1
    b = 1
    for i, s in enumerate(synd):
        delta = s
        for j in range(1, L + 1):
            delta ^= f.mul(lam[j], synd[i - j])
        if delta == 0:
            m += 1
            continue
        scale = f.mul(delta, f.inv(b))
        shifted = [0] * m + [f.mul(scale, c) for c in prev]
        old = lam
        lam = [a ^ b2 for a, b2 in
               zip(lam + [0] * (len(shifted) - len(lam)),
                   shifted + [0] * (len(lam) - len(shifted)))]
        if 2 * L <= i:
            L = i + 1 - L
            prev = old
            b = delta
            m = 1
        else:
            m += 1
    while lam and lam[-1] == 0:
        lam.pop()
    return lam


def rs_decode(received, spec: RSSpec) -> RSDecodeResult:
    """Bounded-distance decoding: corrects up to t_RS symbol errors.

    Beyond t_RS errors the result is a failure or (rarely) a wrong codeword;
    on failure the message field carries the received systematic symbols.
    """
    received = list(int(s) for s in received)
    if len(received) != spec.n_out:
        raise ValueError(f"expected {spec.n_out} symbols, got {len(received)}")
    spec.field._check(*received)
    f = spec.field

    # Undo the shortening: leading zeros restore the base-length word.
    full = [0] * spec.shortening + received
    n = len(full)
    fallback = tuple(received[:spec.K_out])

    synd = _syndromes(full, spec)
    if not any(synd):
        return RSDecodeResult(True, fallback, 0)

    lam = _berlekamp_massey(synd, f)
    n_err = len(lam) - 1
    if n_err == 0 or n_err > spec.t_RS:
        return RSDecodeResult(False, fallback, 0, RSDecodeReason.LOCATOR_DEGREE)

    # Chien search: locator alpha^j marks list position n-1-j.
    positions = []
    for j in range(n):
        if f.poly_eval(lam, f.pow_alpha(-j)) == 0:
            positions.append(n - 1 - j)
    if len(positions) != n_err:
        return RSDecodeResult(False, fallback, 0, RSDecodeReason.ROOT_COUNT)
    if any(p < spec.shortening for p in positions):
        # error located inside the zero padding: not a correctable word
        return RSDecodeResult(False, fallback, 0, RSDecodeReason.ROOT_IN_PADDING)

    # Forney values with first consecutive root alpha^0.
    omega = f.poly_mul(synd, lam)[:spec.d_RS - 1]
    lam_deriv = [lam[k] for k in range(1, len(lam), 2)]
    corrected = list(full)
    for p in positions:
        x = f.pow_alpha(n - 1 - p)
        x_inv = f.inv(x)
        num = f.poly_eval(omega, x_inv)
        den = 0
        for k, c in enumerate(lam_deriv):
            den ^= f.mul(c, f.pow_alpha((2 * k * f._log[x_inv]) % (f.q - 1))) if c else 0
        if den == 0:
            return RSDecodeResult(False, fallback, 0, RSDecodeReason.FORNEY_DENOMINATOR)
        corrected[p] ^= f.mul(x, f.mul(num, f.inv(den)))

    if any(_syndromes(corrected, spec)):
        return RSDecodeResult(False, fallback, 0, RSDecodeReason.RESIDUAL_SYNDROME)
    message = tuple(corrected[spec.shortening:spec.shortening + spec.K_out])
    return RSDecodeResult(True, message, n_err)


def symbols_to_bits(symbols, m: int) -> str:
    return "".join(format(int(s), f"0{m}b") for s in symbols)


def bits_to_symbols(bits: str, m: int) -> tuple[int, ...]:
    if len(bits) % m:
        raise ValueError(f"bit length {len(bits)} is not a multiple of {m}")
    return tuple(int(bits[i:i + m], 2) for i in range(0, len(bits), m))


def compose_encode(message_bits: str, code: CodeSpec, rs: RSSpec) -> SparseCoefficients:
    """Outer-encode message bits and use the codeword symbols as section labels."""
    if code.signed:
        raise ValueError("composition uses unsigned section labels")
    if code.B != rs.field.q:
        raise ValueError(
            f"section size {code.B} must equal the field size {rs.field.q}")
    if rs.n_out != code.L:
        raise ValueError(
            f"outer length {rs.n_out} must equal the section count {code.L}")
    symbols = bits_to_symbols(message_bits, rs.field.m)
    if len(symbols) != rs.K_out:
        raise ValueError(
            f"expected {rs.K_out * rs.field.m} message bits, got {len(message_bits)}")
    return SparseCoefficients.unsigned(rs_encode(symbols, rs))


def compose_decode(decoded, rs: RSSpec) -> tuple[str, bool]:
    """Outer-decode section labels back to message bits.

    Accepts SparseCoefficients or a bare label sequence.  Returns the bits
    and whether the outer decoder claimed success; up to t_RS section
    mistakes are corrected exactly.
    """
    labels = decoded.indices if isinstance(decoded, SparseCoefficients) else decoded
    result = rs_decode(labels, rs)
    return symbols_to_bits(result.message, rs.field.m), result.ok


def composite_rate(inner_rate: float, rs: RSSpec) -> float:
    """Total rate of the composed code: inner rate times K_out / L."""
    return inner_rate * rs.K_out / rs.n_out
