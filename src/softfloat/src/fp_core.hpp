// Internal scalar core of the batch FloPoCo kernels: the hoisted-format
// element operations shared by the portable loops (batch.cpp) and the
// AVX-512 decoder's rare-lane patch-ups (batch_simd.cpp). Every helper
// here is a bit-for-bit translation of the scalar FpValue arithmetic in
// fpformat.cpp — see the contract note in include/vcgra/softfloat/batch.hpp
// — except the binary64-domain section at the end, which reaches the same
// bits through IEEE double arithmetic.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "vcgra/softfloat/fpformat.hpp"

namespace vcgra::softfloat::fpcore {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Every format-derived constant the element loops need, computed once
/// per batch call instead of once per element.
struct Fmt {
  int we;
  int wf;
  int shift;          // we + wf: position of the sign bit
  std::int64_t bias;
  u64 exp_mask;
  u64 frac_mask;
  u64 hidden;         // 1 << wf
  u64 sign_bit;       // 1 << shift
  u64 nan_bits;       // canonical NaN encoding
  u64 inf_base;       // infinity with sign 0; OR the sign in

  explicit Fmt(const FpFormat& f)
      : we(f.we),
        wf(f.wf),
        shift(f.we + f.wf),
        bias(f.bias()),
        exp_mask(f.exp_mask()),
        frac_mask(f.frac_mask()),
        hidden(u64{1} << f.wf),
        sign_bit(u64{1} << shift),
        nan_bits(u64{6} << shift),
        inf_base(u64{4} << shift) {}

  u64 cls(u64 bits) const { return (bits >> (shift + 1)) & 3; }
  u64 sign(u64 bits) const { return (bits >> shift) & 1; }
  u64 exponent(u64 bits) const { return (bits >> wf) & exp_mask; }
  u64 fraction(u64 bits) const { return bits & frac_mask; }
  u64 zero(u64 sign) const { return sign << shift; }
  u64 inf(u64 sign) const { return inf_base | (sign << shift); }
  u64 normal(u64 sign, u64 exponent, u64 fraction) const {
    return ((u64{2} | sign) << shift) | (exponent << wf) | fraction;
  }
};

// FpClass encodings (fpformat.hpp): 0 zero, 1 normal, 2 inf, 3 NaN.
constexpr u64 kZero = 0, kNormal = 1, kInf = 2, kNaN = 3;

/// Round-and-pack tail shared by every multiplier path: `product` is the
/// (2wf+2)-bit significand product, already narrowed to u64 when the
/// format allows. Bit-identical to the tail of fp_mul (fpformat.cpp).
template <typename Product>
inline u64 mul_pack(const Fmt& m, u64 sign, u64 exp_a, u64 exp_b,
                    Product product) {
  // Whether the product landed in [2,4) is data-dependent coin-flip
  // territory, so everything below is arithmetic on `top` instead of a
  // branch: guard sits at bit wf-1+top, the kept fraction right above it.
  const int top = static_cast<int>((product >> (2 * m.wf + 1)) & 1);
  const int sh = m.wf - 1 + top;
  const u64 frac_pre = static_cast<u64>(product >> (sh + 1)) & m.frac_mask;
  const u64 guard = static_cast<u64>(product >> sh) & 1;
  const u64 sticky = (product & ((Product{1} << sh) - 1)) != 0;
  const u64 round_up = guard & (sticky | (frac_pre & 1));
  u64 mant = (m.hidden | frac_pre) + round_up;
  const u64 exp_round = mant >> (m.wf + 1);  // 1.111..1 rounded to 10.000..0
  mant >>= exp_round;
  const std::int64_t exponent =
      static_cast<std::int64_t>(exp_a) + static_cast<std::int64_t>(exp_b) -
      m.bias + top + static_cast<std::int64_t>(exp_round);
  if (exponent < 0) return m.zero(sign);
  if (exponent > static_cast<std::int64_t>(m.exp_mask)) return m.inf(sign);
  return m.normal(sign, static_cast<u64>(exponent), mant & m.frac_mask);
}

/// Bit-for-bit translation of fp_mul (fpformat.cpp) with the format
/// constants hoisted into `m`. The significand product stays in a u64
/// whenever 2wf+2 <= 64 (every shipped format) — the u128 path is the
/// generic fallback for very wide fractions.
inline u64 mul_one(const Fmt& m, u64 a, u64 b) {
  const u64 sign = m.sign(a) ^ m.sign(b);
  const u64 ca = m.cls(a), cb = m.cls(b);

  if (ca == kNaN || cb == kNaN) return m.nan_bits;
  if ((ca == kInf && cb == kZero) || (ca == kZero && cb == kInf)) {
    return m.nan_bits;
  }
  if (ca == kInf || cb == kInf) return m.inf(sign);
  if (ca == kZero || cb == kZero) return m.zero(sign);

  const u64 ma = m.hidden | m.fraction(a);
  const u64 mb = m.hidden | m.fraction(b);
  if (2 * m.wf + 2 <= 64) {
    return mul_pack<u64>(m, sign, m.exponent(a), m.exponent(b), ma * mb);
  }
  return mul_pack<u128>(m, sign, m.exponent(a), m.exponent(b),
                        static_cast<u128>(ma) * static_cast<u128>(mb));
}

/// One element of a mul-by-coefficient stream: the coefficient's class,
/// sign, significand and exponent are decoded once per batch (see
/// CoeffMul below), so the element loop only classifies the stream side.
struct CoeffMul {
  u64 cls;       // FpClass of the coefficient
  u64 sign;      // sign bit value (0/1)
  u64 mant;      // hidden | fraction
  u64 exponent;  // biased

  CoeffMul(const Fmt& m, u64 coeff)
      : cls(m.cls(coeff)),
        sign(m.sign(coeff)),
        mant(m.hidden | m.fraction(coeff)),
        exponent(m.exponent(coeff)) {}
};

inline u64 mul_one_coeff(const Fmt& m, u64 a, const CoeffMul& c) {
  const u64 sign = m.sign(a) ^ c.sign;
  const u64 ca = m.cls(a);

  if (ca == kNaN || c.cls == kNaN) return m.nan_bits;
  if ((ca == kInf && c.cls == kZero) || (ca == kZero && c.cls == kInf)) {
    return m.nan_bits;
  }
  if (ca == kInf || c.cls == kInf) return m.inf(sign);
  if (ca == kZero || c.cls == kZero) return m.zero(sign);

  const u64 ma = m.hidden | m.fraction(a);
  if (2 * m.wf + 2 <= 64) {
    return mul_pack<u64>(m, sign, m.exponent(a), c.exponent, ma * c.mant);
  }
  return mul_pack<u128>(m, sign, m.exponent(a), c.exponent,
                        static_cast<u128>(ma) * static_cast<u128>(c.mant));
}

/// Bit-for-bit translation of fp_add (fpformat.cpp). The hot
/// normal+normal path is branch-free: operand ordering, the effective
/// subtract, alignment sticky, the normalize (countl_zero instead of the
/// scalar's linear MSB scan) and the rounding carry are all arithmetic —
/// the scalar version's data-dependent branches mispredict on roughly
/// every other element of a real stream.
inline u64 add_one(const Fmt& m, u64 a, u64 b) {
  const u64 ca = m.cls(a), cb = m.cls(b);
  if (ca != kNormal || cb != kNormal) {  // one predictable branch
    if (ca == kNaN || cb == kNaN) return m.nan_bits;
    if (ca == kInf && cb == kInf) {
      return m.sign(a) == m.sign(b) ? a : m.nan_bits;
    }
    if (ca == kInf) return a;
    if (cb == kInf) return b;
    if (ca == kZero) {
      return cb == kZero ? m.zero(m.sign(a) & m.sign(b)) : b;
    }
    return a;  // cb == kZero
  }

  // Order by magnitude: X is the larger (exp,frac) pair; ties keep a.
  const u64 mag_a = (m.exponent(a) << m.wf) | m.fraction(a);
  const u64 mag_b = (m.exponent(b) << m.wf) | m.fraction(b);
  const bool a_big = mag_a >= mag_b;
  const u64 x = a_big ? a : b;
  const u64 y = a_big ? b : a;
  const u64 x_sign = m.sign(x);
  const u64 exp_x = m.exponent(x);

  // Alignment shift, capped at the operand width: a fully shifted-out Y
  // degenerates to the same pure-sticky 1 the scalar's d >= width branch
  // produces (my_full has wf+4 significant bits).
  const u64 width = static_cast<u64>(m.wf) + 4;
  u64 d = exp_x - m.exponent(y);
  d = d < width ? d : width;
  const u64 mx = (m.hidden | m.fraction(x)) << 3;
  const u64 my_full = (m.hidden | m.fraction(y)) << 3;
  u64 my = my_full >> d;
  my |= (my << d) != my_full;  // sticky for the shifted-out bits

  // s = eff_sub ? mx - my : mx + my, via conditional negation.
  const u64 eff_sub = x_sign ^ m.sign(y);
  const u64 neg = 0 - eff_sub;
  const u64 s = mx + (my ^ neg) + eff_sub;  // fits in wf+5 bits
  if (s == 0) return m.zero(0);  // exact cancellation (rare)

  // Normalize so the leading 1 sits at bit wf+3.
  const int t = m.wf + 3;
  const int k = 63 - std::countl_zero(s);
  const std::int64_t exp_shift = k - t;
  const bool carry = k > t;
  // Carry out: shift right one, preserve sticky. The left-shift operand
  // is garbage when carry is set ((t - k) wraps) — never selected.
  const u64 s_norm = carry ? ((s >> 1) | (s & 1))
                           : (s << (static_cast<unsigned>(t - k) & 63));

  const u64 frac_pre = (s_norm >> 3) & m.frac_mask;
  const u64 guard = (s_norm >> 2) & 1;
  const u64 sticky = (s_norm & 3) != 0;
  const u64 round_up = guard & (sticky | (frac_pre & 1));
  u64 mant = (m.hidden | frac_pre) + round_up;
  const u64 mant_carry = mant >> (m.wf + 1);
  mant >>= mant_carry;
  const std::int64_t exponent = static_cast<std::int64_t>(exp_x) + exp_shift +
                                static_cast<std::int64_t>(mant_carry);
  if (exponent < 0) return m.zero(x_sign);
  if (exponent > static_cast<std::int64_t>(m.exp_mask)) return m.inf(x_sign);
  return m.normal(x_sign, static_cast<u64>(exponent), mant & m.frac_mask);
}

inline u64 encode_one(const Fmt& m, double value) {
  const u64 d = std::bit_cast<u64>(value);
  const u64 sign = d >> 63;
  const u64 dexp = (d >> 52) & 0x7ff;
  const u64 dfrac = d & ((u64{1} << 52) - 1);

  if (dexp == 0x7ff) return dfrac ? m.nan_bits : m.inf(sign);
  if (dexp == 0 && dfrac == 0) return m.zero(sign);

  // frexp exponent (value = 0.1f.. * 2^e2) and the 52 fraction bits of
  // the normalized significand. Denormal doubles renormalize via the MSB.
  std::int64_t e2;
  u64 f52;
  if (dexp != 0) {
    e2 = static_cast<std::int64_t>(dexp) - 1022;
    f52 = dfrac;
  } else {
    const int msb = 63 - std::countl_zero(dfrac);
    e2 = msb - 1073;
    f52 = (dfrac << (52 - msb)) & ((u64{1} << 52) - 1);
  }

  // RNE from 52 fraction bits to wf — identical ties-to-even behavior to
  // from_double's nearbyint((2m - 1) * 2^wf).
  u64 frac;
  const int drop = 52 - m.wf;
  if (drop <= 0) {
    frac = f52 << -drop;
  } else {
    frac = f52 >> drop;
    const bool guard = (f52 >> (drop - 1)) & 1;
    const bool sticky = (f52 & ((u64{1} << (drop - 1)) - 1)) != 0;
    if (guard && (sticky || (frac & 1))) ++frac;
  }
  std::int64_t exponent = (e2 - 1) + m.bias;
  if (frac == m.hidden) {  // rounding carried into the hidden bit
    frac = 0;
    ++exponent;
  }
  if (exponent < 0) return m.zero(sign);
  if (exponent > static_cast<std::int64_t>(m.exp_mask)) return m.inf(sign);
  return m.normal(sign, static_cast<u64>(exponent), frac);
}

inline double decode_one(const Fmt& m, u64 bits) {
  switch (m.cls(bits)) {
    case kZero: return m.sign(bits) ? -0.0 : 0.0;
    case kInf:
      return m.sign(bits) ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
    case kNaN: return std::numeric_limits<double>::quiet_NaN();
    default: break;
  }
  const std::int64_t e =
      static_cast<std::int64_t>(m.exponent(bits)) - m.bias;
  const std::int64_t dexp = e + 1023;
  if (m.wf <= 52 && dexp >= 1 && dexp <= 2046) {
    // Exact normal-range assembly: fraction widens losslessly to 52 bits.
    return std::bit_cast<double>((m.sign(bits) << 63) |
                                 (static_cast<u64>(dexp) << 52) |
                                 (m.fraction(bits) << (52 - m.wf)));
  }
  // Outside the normal double range (or an oversized fraction): fall back
  // to the exact expression FpValue::to_double evaluates.
  const double significand =
      1.0 + std::ldexp(static_cast<double>(m.fraction(bits)), -m.wf);
  const double magnitude = std::ldexp(significand, static_cast<int>(e));
  return m.sign(bits) ? -magnitude : magnitude;
}

/// The canonical encoding of the value `bits` holds: a zero keeps only its
/// sign, an inf only its sign and class, every NaN is nan_bits, and a
/// normal drops any bit above the sign. An encoding is canonical when it
/// equals this; for formats the binary64 domain carries, that is exactly
/// when a decode to double and a pack back return it unchanged.
inline u64 canonical_one(const Fmt& m, u64 bits) {
  switch (m.cls(bits)) {
    case kZero: return m.zero(m.sign(bits));
    case kInf: return m.inf(m.sign(bits));
    case kNaN: return m.nan_bits;
    default: return bits & (~u64{0} >> (61 - m.shift));  // the format's 3+we+wf bits
  }
}

// --- Binary64 value domain ---------------------------------------------------
//
// For fp(we <= 9, wf <= 50) every format value, and every exact sum or
// product of two, is a binary64 normal. A stream can then be held as
// doubles equal to its format values, and each op computes in binary64,
// recovers its exact rounding error (TwoSum for add, an FMA residual for
// mul), rounds the pair to odd at 53 bits and finally to nearest-even at
// wf+1 bits with the format's flush/saturate. Rounding to odd at p+k bits
// (k >= 2) and then to nearest at p bits equals direct nearest rounding
// (Boldo & Melquiond, IEEE TC 57(4), 2008), and add_one/mul_pack above
// round the exact result to nearest-even too — so the results are the
// oracle's, bit for bit. IEEE special-value rules already match the
// oracle's class ladder (x+0 = x, +0 + -0 = +0, cancellation gives +0,
// inf-inf and 0*inf give NaN), so no lane needs a patch.

constexpr u64 kF64Sign = u64{1} << 63;
constexpr u64 kF64Inf = u64{0x7ff} << 52;
constexpr u64 kF64Frac = (u64{1} << 52) - 1;

/// Formats whose arithmetic the binary64 domain reproduces exactly.
inline bool f64_arith_fits(int we, int wf) {
  return we >= 1 && we <= 9 && wf >= 1 && wf <= 50;
}

/// Formats that round() and pack() below handle (any double in): the
/// format's smallest value must sit above every denormal double and at
/// least one fraction bit must be dropped.
inline bool f64_round_fits(int we, int wf) {
  return we >= 1 && we <= 10 && wf >= 1 && wf <= 51;
}

/// The rounding constants of one format, on a double's magnitude bits.
struct F64Fmt {
  int drop;       // 52 - wf: fraction bits a format value leaves at zero
  u64 half_m1;    // half an ulp minus one: plus the kept lsb, rounds to nearest-even
  u64 keep;       // magnitude bits a format value may set
  u64 min_mag;    // 2^-bias, the smallest format value
  u64 max_mag;    // the largest finite format value
  std::int64_t rebias;  // format exponent = double exponent field + rebias

  explicit F64Fmt(const Fmt& m)
      : drop(52 - m.wf),
        half_m1((u64{1} << (drop - 1)) - 1),
        keep(~((u64{1} << drop) - 1) & ~kF64Sign),
        min_mag(static_cast<u64>(1023 - m.bias) << 52),
        max_mag((static_cast<u64>(1023 + static_cast<std::int64_t>(m.exp_mask) -
                                  m.bias)
                 << 52) |
                (m.frac_mask << drop)),
        rebias(m.bias - 1023) {}
};

/// Any double to the nearest format value, as a double: nearest-even at
/// bit `drop` (the carry may ripple into the exponent), then a result
/// below 2^-bias flushes to a signed zero and one above the top value
/// saturates to a signed inf. A NaN is kept.
inline double f64_round(const F64Fmt& k, double x) {
  const u64 bits = std::bit_cast<u64>(x);
  const u64 sign = bits & kF64Sign;
  const u64 mag = bits ^ sign;
  if (mag > kF64Inf) return x;
  const u64 r = (mag + k.half_m1 + ((mag >> k.drop) & 1)) & k.keep;
  if (r < k.min_mag) return std::bit_cast<double>(sign);
  if (r > k.max_mag) return std::bit_cast<double>(sign | kF64Inf);
  return std::bit_cast<double>(sign | r);
}

/// Round-to-odd of the exact value s + e, where s = fl(exact) and e is
/// the exact error: an inexact result keeps the odd one of the two
/// doubles bracketing it. A NaN error (s is inf or NaN) leaves s alone.
inline double f64_odd(double s, double e) {
  if (!(e < 0 || e > 0)) return s;
  u64 bits = std::bit_cast<u64>(s);
  if (std::signbit(e) != std::signbit(s)) --bits;
  return std::bit_cast<double>(bits | 1);
}

inline double f64_mul(const F64Fmt& k, double a, double b) {
  const double p = a * b;
  return f64_round(k, f64_odd(p, std::fma(a, b, -p)));
}

inline double f64_add(const F64Fmt& k, double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return f64_round(k, f64_odd(s, (a - (s - bb)) + (b - bb)));
}

/// A format-exact double to format bits (any NaN becomes nan_bits).
inline u64 f64_pack(const Fmt& m, const F64Fmt& k, double x) {
  const u64 bits = std::bit_cast<u64>(x);
  const u64 sign = bits >> 63;
  const u64 mag = bits & ~kF64Sign;
  if (mag == 0) return m.zero(sign);
  if (mag >= kF64Inf) return mag == kF64Inf ? m.inf(sign) : m.nan_bits;
  return m.normal(sign,
                  static_cast<u64>(static_cast<std::int64_t>(mag >> 52) + k.rebias),
                  (mag & kF64Frac) >> k.drop);
}


}  // namespace vcgra::softfloat::fpcore
