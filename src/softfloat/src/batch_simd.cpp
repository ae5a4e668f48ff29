// SIMD lanes for the batch FloPoCo kernels: AVX-512 and NEON ports.
//
// Every arithmetic step below is the vector transliteration of the
// branchless scalar core in fp_core.hpp (itself a bit-for-bit
// translation of fpformat.cpp): 8 encodings per __m512i (2 per
// uint64x2_t on AArch64), format constants broadcast once per call,
// data-dependent control flow turned into mask blends. Lanes the vector
// path cannot carry — a non-normal operand class, a denormal double at
// the encode boundary — are recomputed through the scalar core and
// merged, so the output is bit-identical to the portable loops for
// every input (asserted by the batch-kernel fuzz in test_exec_plan,
// which exercises whichever port the build selected).
//
// The x86 port is compiled with per-function target attributes, so the
// object file links into a baseline x86-64 build; available() gates
// execution at runtime. AdvSIMD is mandatory on AArch64, so the NEON
// port needs no dispatch attribute and available() is constant-true.
#include "batch_simd.hpp"

#if VCGRA_SIMD_X86
#include <immintrin.h>
// GCC's avx512 headers trip -Wmaybe-uninitialized on the _mm512_maskz_*
// idiom (the masked-off operand is intentionally undefined).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#elif VCGRA_SIMD_NEON
#include <arm_neon.h>
#endif

namespace vcgra::softfloat::simd {

using fpcore::add_one;
using fpcore::CoeffMul;
using fpcore::Fmt;
using fpcore::mul_one;
using fpcore::mul_one_coeff;
using u64 = std::uint64_t;

#if VCGRA_SIMD_X86

#define VCGRA_TARGET __attribute__((target("avx512f,avx512cd,avx512dq")))

bool available() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512cd") &&
                         __builtin_cpu_supports("avx512dq");
  return ok;
}

namespace {

/// The 64-bit significand-product trick needs 2wf+2 bits; vpmullq needs
/// the same. Wider fractions fall back to the scalar loop whole-call.
bool lanes_fit(const Fmt& m) { return 2 * m.wf + 2 <= 64; }

struct VStage {
  __m512i bits;      // result encodings (valid on `normal_in` lanes)
  __mmask8 res_norm; // ... of those, lanes whose result class is normal
};

/// Shared round-and-pack tail of both vector multipliers: `product` is
/// the lane-wise significand product, `exp_base` the biased operand
/// exponent sum already carrying -bias, `sign` the 0/1 result signs.
/// Mirrors fpcore::mul_pack exactly.
VCGRA_TARGET inline VStage v_mul_pack(const Fmt& m, __m512i sign,
                                      __m512i exp_base, __m512i product) {
  const __m512i frac_mask = _mm512_set1_epi64(static_cast<long long>(m.frac_mask));
  const __m512i hidden = _mm512_set1_epi64(static_cast<long long>(m.hidden));
  const __m512i one = _mm512_set1_epi64(1);

  // top = product in [2,4); guard bit sits at wf-1+top.
  const __m512i top =
      _mm512_and_epi64(_mm512_srli_epi64(product, 2 * m.wf + 1), one);
  const __m512i sh = _mm512_add_epi64(_mm512_set1_epi64(m.wf - 1), top);
  const __m512i frac_pre = _mm512_and_epi64(
      _mm512_srlv_epi64(product, _mm512_add_epi64(sh, one)), frac_mask);
  const __m512i guard = _mm512_and_epi64(_mm512_srlv_epi64(product, sh), one);
  const __m512i below = _mm512_sub_epi64(_mm512_sllv_epi64(one, sh), one);
  const __mmask8 sticky_k = _mm512_test_epi64_mask(product, below);
  const __m512i sticky = _mm512_maskz_mov_epi64(sticky_k, one);
  const __m512i round_up = _mm512_and_epi64(
      guard, _mm512_or_epi64(sticky, _mm512_and_epi64(frac_pre, one)));
  __m512i mant = _mm512_add_epi64(_mm512_or_epi64(hidden, frac_pre), round_up);
  const __m512i exp_round = _mm512_srli_epi64(mant, m.wf + 1);
  mant = _mm512_srlv_epi64(mant, exp_round);

  __m512i exponent =
      _mm512_add_epi64(exp_base, _mm512_add_epi64(top, exp_round));
  const __m512i sign_shifted = _mm512_slli_epi64(sign, m.shift);
  const __mmask8 under =
      _mm512_cmplt_epi64_mask(exponent, _mm512_setzero_si512());
  const __mmask8 over = _mm512_cmpgt_epi64_mask(
      exponent, _mm512_set1_epi64(static_cast<long long>(m.exp_mask)));

  __m512i res = _mm512_or_epi64(
      _mm512_or_epi64(
          _mm512_slli_epi64(_mm512_or_epi64(sign, _mm512_set1_epi64(2)),
                            m.shift),
          _mm512_slli_epi64(exponent, m.wf)),
      _mm512_and_epi64(mant, frac_mask));
  res = _mm512_mask_mov_epi64(res, under, sign_shifted);  // flush to zero
  res = _mm512_mask_mov_epi64(
      res, over,
      _mm512_or_epi64(sign_shifted,
                      _mm512_set1_epi64(static_cast<long long>(m.inf_base))));

  VStage out;
  out.bits = res;
  out.res_norm = _knot_mask8(_kor_mask8(under, over));
  return out;
}

/// Vector fp_mul by a broadcast normal coefficient. Valid only on lanes
/// whose `a` class is normal; the caller patches the rest.
VCGRA_TARGET inline VStage v_mul_coeff(const Fmt& m, __m512i va,
                                       const CoeffMul& c) {
  const __m512i frac_mask = _mm512_set1_epi64(static_cast<long long>(m.frac_mask));
  const __m512i hidden = _mm512_set1_epi64(static_cast<long long>(m.hidden));
  const __m512i ma = _mm512_or_epi64(_mm512_and_epi64(va, frac_mask), hidden);
  const __m512i product =
      _mm512_mullo_epi64(ma, _mm512_set1_epi64(static_cast<long long>(c.mant)));
  const __m512i exp_a = _mm512_and_epi64(
      _mm512_srli_epi64(va, m.wf),
      _mm512_set1_epi64(static_cast<long long>(m.exp_mask)));
  const __m512i exp_base = _mm512_add_epi64(
      exp_a, _mm512_set1_epi64(static_cast<long long>(
                 static_cast<std::int64_t>(c.exponent) - m.bias)));
  const __m512i sign = _mm512_xor_epi64(
      _mm512_and_epi64(_mm512_srli_epi64(va, m.shift),
                       _mm512_set1_epi64(1)),
      _mm512_set1_epi64(static_cast<long long>(c.sign)));
  return v_mul_pack(m, sign, exp_base, product);
}

/// Vector fp_mul of two streams. Valid only on lanes where both classes
/// are normal.
VCGRA_TARGET inline VStage v_mul(const Fmt& m, __m512i va, __m512i vb) {
  const __m512i frac_mask = _mm512_set1_epi64(static_cast<long long>(m.frac_mask));
  const __m512i hidden = _mm512_set1_epi64(static_cast<long long>(m.hidden));
  const __m512i ma = _mm512_or_epi64(_mm512_and_epi64(va, frac_mask), hidden);
  const __m512i mb = _mm512_or_epi64(_mm512_and_epi64(vb, frac_mask), hidden);
  const __m512i product = _mm512_mullo_epi64(ma, mb);
  const __m512i exp_mask_v =
      _mm512_set1_epi64(static_cast<long long>(m.exp_mask));
  const __m512i exp_a =
      _mm512_and_epi64(_mm512_srli_epi64(va, m.wf), exp_mask_v);
  const __m512i exp_b =
      _mm512_and_epi64(_mm512_srli_epi64(vb, m.wf), exp_mask_v);
  const __m512i exp_base = _mm512_add_epi64(
      _mm512_add_epi64(exp_a, exp_b),
      _mm512_set1_epi64(static_cast<long long>(-m.bias)));
  const __m512i sign = _mm512_and_epi64(
      _mm512_xor_epi64(_mm512_srli_epi64(va, m.shift),
                       _mm512_srli_epi64(vb, m.shift)),
      _mm512_set1_epi64(1));
  return v_mul_pack(m, sign, exp_base, product);
}

/// Vector fp_add. Valid only on lanes where both classes are normal;
/// exact cancellation and exponent clamps are handled with blends.
VCGRA_TARGET inline __m512i v_add(const Fmt& m, __m512i va, __m512i vb) {
  const __m512i frac_mask = _mm512_set1_epi64(static_cast<long long>(m.frac_mask));
  const __m512i exp_mask_v = _mm512_set1_epi64(static_cast<long long>(m.exp_mask));
  const __m512i hidden = _mm512_set1_epi64(static_cast<long long>(m.hidden));
  const __m512i one = _mm512_set1_epi64(1);

  // Order by magnitude: X = larger (exp,frac); ties keep a.
  const __m512i frac_a = _mm512_and_epi64(va, frac_mask);
  const __m512i frac_b = _mm512_and_epi64(vb, frac_mask);
  const __m512i exp_a = _mm512_and_epi64(_mm512_srli_epi64(va, m.wf), exp_mask_v);
  const __m512i exp_b = _mm512_and_epi64(_mm512_srli_epi64(vb, m.wf), exp_mask_v);
  const __m512i mag_a = _mm512_or_epi64(_mm512_slli_epi64(exp_a, m.wf), frac_a);
  const __m512i mag_b = _mm512_or_epi64(_mm512_slli_epi64(exp_b, m.wf), frac_b);
  const __mmask8 a_big = _mm512_cmpge_epu64_mask(mag_a, mag_b);
  // mask_blend(k, u, v) = k ? v : u.
  const __m512i x = _mm512_mask_blend_epi64(a_big, vb, va);
  const __m512i y = _mm512_mask_blend_epi64(a_big, va, vb);
  const __m512i exp_x = _mm512_mask_blend_epi64(a_big, exp_b, exp_a);
  const __m512i exp_y = _mm512_mask_blend_epi64(a_big, exp_a, exp_b);

  // Alignment shift with the scalar core's width cap.
  __m512i d = _mm512_sub_epi64(exp_x, exp_y);
  d = _mm512_min_epu64(d, _mm512_set1_epi64(m.wf + 4));
  const __m512i mx = _mm512_slli_epi64(
      _mm512_or_epi64(_mm512_and_epi64(x, frac_mask), hidden), 3);
  const __m512i my_full = _mm512_slli_epi64(
      _mm512_or_epi64(_mm512_and_epi64(y, frac_mask), hidden), 3);
  __m512i my = _mm512_srlv_epi64(my_full, d);
  const __mmask8 sticky_shift =
      _mm512_cmpneq_epi64_mask(_mm512_sllv_epi64(my, d), my_full);
  my = _mm512_mask_or_epi64(my, sticky_shift, my, one);

  // s = eff_sub ? mx - my : mx + my via conditional negation.
  const __m512i sign_x = _mm512_and_epi64(_mm512_srli_epi64(x, m.shift), one);
  const __m512i sign_y = _mm512_and_epi64(_mm512_srli_epi64(y, m.shift), one);
  const __m512i eff = _mm512_xor_epi64(sign_x, sign_y);
  const __m512i neg = _mm512_sub_epi64(_mm512_setzero_si512(), eff);
  const __m512i s = _mm512_add_epi64(
      _mm512_add_epi64(mx, _mm512_xor_epi64(my, neg)), eff);
  const __mmask8 cancel = _mm512_cmpeq_epi64_mask(s, _mm512_setzero_si512());

  // Normalize: leading 1 to bit wf+3 (lzcnt of 0 is 64 — cancel lanes
  // are blended out below, their garbage never escapes).
  const int t = m.wf + 3;
  const __m512i k =
      _mm512_sub_epi64(_mm512_set1_epi64(63), _mm512_lzcnt_epi64(s));
  const __mmask8 carry =
      _mm512_cmpgt_epi64_mask(k, _mm512_set1_epi64(t));
  const __m512i s_r = _mm512_or_epi64(_mm512_srli_epi64(s, 1),
                                      _mm512_and_epi64(s, one));
  const __m512i shl = _mm512_and_epi64(
      _mm512_sub_epi64(_mm512_set1_epi64(t), k), _mm512_set1_epi64(63));
  const __m512i s_l = _mm512_sllv_epi64(s, shl);
  const __m512i s_norm = _mm512_mask_blend_epi64(carry, s_l, s_r);

  const __m512i frac_pre =
      _mm512_and_epi64(_mm512_srli_epi64(s_norm, 3), frac_mask);
  const __m512i guard = _mm512_and_epi64(_mm512_srli_epi64(s_norm, 2), one);
  const __mmask8 sticky_k =
      _mm512_test_epi64_mask(s_norm, _mm512_set1_epi64(3));
  const __m512i sticky = _mm512_maskz_mov_epi64(sticky_k, one);
  const __m512i round_up = _mm512_and_epi64(
      guard, _mm512_or_epi64(sticky, _mm512_and_epi64(frac_pre, one)));
  __m512i mant = _mm512_add_epi64(_mm512_or_epi64(hidden, frac_pre), round_up);
  const __m512i mant_carry = _mm512_srli_epi64(mant, m.wf + 1);
  mant = _mm512_srlv_epi64(mant, mant_carry);

  __m512i exponent = _mm512_add_epi64(
      exp_x, _mm512_sub_epi64(k, _mm512_set1_epi64(t)));
  exponent = _mm512_add_epi64(exponent, mant_carry);

  const __m512i sign_shifted = _mm512_slli_epi64(sign_x, m.shift);
  const __mmask8 under =
      _mm512_cmplt_epi64_mask(exponent, _mm512_setzero_si512());
  const __mmask8 over = _mm512_cmpgt_epi64_mask(exponent, exp_mask_v);

  __m512i res = _mm512_or_epi64(
      _mm512_or_epi64(
          _mm512_slli_epi64(_mm512_or_epi64(sign_x, _mm512_set1_epi64(2)),
                            m.shift),
          _mm512_slli_epi64(exponent, m.wf)),
      _mm512_and_epi64(mant, frac_mask));
  res = _mm512_mask_mov_epi64(res, under, sign_shifted);
  res = _mm512_mask_mov_epi64(
      res, over,
      _mm512_or_epi64(sign_shifted,
                      _mm512_set1_epi64(static_cast<long long>(m.inf_base))));
  res = _mm512_maskz_mov_epi64(_knot_mask8(cancel), res);  // +0 on cancel
  return res;
}

/// Class-of-lane == normal mask.
VCGRA_TARGET inline __mmask8 v_normal(const Fmt& m, __m512i v) {
  const __m512i cls = _mm512_and_epi64(_mm512_srli_epi64(v, m.shift + 1),
                                       _mm512_set1_epi64(3));
  return _mm512_cmpeq_epi64_mask(cls, _mm512_set1_epi64(1));
}

VCGRA_TARGET inline __m512i v_load(const std::uint64_t* p, __mmask8 lane_mask) {
  return _mm512_maskz_loadu_epi64(lane_mask, p);
}

VCGRA_TARGET inline __mmask8 v_lanes(std::size_t n, std::size_t i) {
  return n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
}

// Binary64 value domain: vector transliterations of fpcore::f64_*.

VCGRA_TARGET inline __m512i v_u64(u64 v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// One format's binary64-domain constants, broadcast once per call into
/// a local so the loops keep them in registers (the masked stores may
/// alias any memory, which would otherwise force a reload per vector).
struct V64 {
  int drop;          // fpcore::F64Fmt::drop
  int to_sign;       // 63 - (we + wf): double sign bit -> format sign bit
  __m512i sign;      // double sign bit
  __m512i inf;       // double +inf bits
  __m512i half_m1, max_mag;  // fpcore::F64Fmt
  __m512i keep;      // fpcore::F64Fmt::keep plus the sign bit
  // The range check on a doubled magnitude: (r << 1) - lo2 > span2
  // exactly when r lies outside [F64Fmt::min_mag, max_mag].
  __m512i lo2, span2;
  // Encoding: a grid magnitude r of a normal packs to (r >> drop) +
  // enc_base, which rebiases the exponent and sets the normal class.
  __m512i enc_base, inf_base, nan_bits;
};

VCGRA_TARGET inline V64 v64_consts(const Fmt& m) {
  const fpcore::F64Fmt k(m);
  V64 c;
  c.drop = k.drop;
  c.to_sign = 63 - m.shift;
  c.sign = v_u64(fpcore::kF64Sign);
  c.inf = v_u64(fpcore::kF64Inf);
  c.half_m1 = v_u64(k.half_m1);
  c.max_mag = v_u64(k.max_mag);
  c.keep = v_u64(k.keep | fpcore::kF64Sign);
  c.lo2 = v_u64(k.min_mag << 1);
  c.span2 = v_u64((k.max_mag - k.min_mag) << 1);
  c.enc_base = v_u64((static_cast<u64>(k.rebias) << m.wf) + (u64{2} << m.shift));
  c.inf_base = v_u64(m.inf_base);
  c.nan_bits = v_u64(m.nan_bits);
  return c;
}

/// Nearest-even rounding at bit c.drop (the carry may ripple into the
/// exponent). On signed bits the sign rides through: only a NaN's
/// magnitude can carry out of bit 62, and such a lane is rare below.
VCGRA_TARGET inline __m512i v64_round_bits(const V64& c, __m512i bits) {
  const __m512i lsb =
      _mm512_and_si512(_mm512_srli_epi64(bits, c.drop), v_u64(1));
  return _mm512_and_si512(
      _mm512_add_epi64(_mm512_add_epi64(bits, c.half_m1), lsb), c.keep);
}

/// Lanes whose rounded bits `r` are not a signed format normal, by one
/// unsigned compare on the doubled magnitude: zeros, flushes,
/// saturations, infinities, NaNs (a payload that carried out of bit 62
/// leaves a zero magnitude) and masked-off tail lanes.
VCGRA_TARGET inline __mmask8 v64_rare(const V64& c, __m512i r) {
  return _mm512_cmpgt_epu64_mask(
      _mm512_sub_epi64(_mm512_slli_epi64(r, 1), c.lo2), c.span2);
}

/// fpcore::f64_round: nearest-even at bit c.drop, flush, saturate, keep
/// NaN. A vector of normal results is its rounded signed bits; only a
/// vector holding a rare lane pays for the class ladder, and only its
/// rare lanes change: a flush becomes a signed zero, a saturation a
/// signed inf, and a NaN (judged on x's own magnitude, since its
/// rounding may have carried into the sign) is kept.
VCGRA_TARGET inline __m512d v64_round(const V64& c, __m512d x) {
  const __m512i bits = _mm512_castpd_si512(x);
  const __m512i fast = v64_round_bits(c, bits);
  const __mmask8 rare = v64_rare(c, fast);
  if (__builtin_expect(rare == 0, 1)) return _mm512_castsi512_pd(fast);
  const __m512i sign = _mm512_and_si512(bits, c.sign);
  __m512i res = _mm512_mask_mov_epi64(fast, rare, sign);
  res = _mm512_mask_mov_epi64(
      res, _mm512_cmpgt_epu64_mask(_mm512_andnot_si512(c.sign, fast), c.max_mag),
      _mm512_or_si512(sign, c.inf));
  res = _mm512_mask_mov_epi64(
      res, _mm512_cmpgt_epu64_mask(_mm512_andnot_si512(c.sign, bits), c.inf), bits);
  return _mm512_castsi512_pd(res);
}

// Round-to-odd from embedded directed rounding (the scalar core's
// TwoSum/FMA-residual form stays the reference): truncate toward zero,
// then set the lsb of the inexact lanes. A NaN lane compares unordered,
// so it counts as exact and passes through.
VCGRA_TARGET inline __m512d v64_odd(__m512d t, __mmask8 inexact) {
  const __m512i bits = _mm512_castpd_si512(t);
  return _mm512_castsi512_pd(_mm512_mask_or_epi64(bits, inexact, bits, v_u64(1)));
}

/// p = a*b toward zero; the FMA residual a*b - p is exact, so the
/// product was inexact exactly when the residual is nonzero.
VCGRA_TARGET inline __m512d v64_mul(const V64& c, __m512d a, __m512d b) {
  const __m512d p =
      _mm512_mul_round_pd(a, b, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __mmask8 inexact = _mm512_cmp_pd_mask(
      _mm512_fmsub_pd(a, b, p), _mm512_setzero_pd(), _CMP_NEQ_OQ);
  return v64_round(c, v64_odd(p, inexact));
}

/// The exact sum lies in [d, u], rounded down and up: it is inexact when
/// they differ, and toward zero is u below zero and d otherwise. An exact
/// cancellation gives d = -0 and u = +0, so it keeps add_one's +0.
VCGRA_TARGET inline __m512d v64_add(const V64& c, __m512d a, __m512d b) {
  const __m512d d =
      _mm512_add_round_pd(a, b, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m512d u =
      _mm512_add_round_pd(a, b, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
  const __mmask8 below = _mm512_movepi64_mask(_mm512_castpd_si512(d));
  return v64_round(c, v64_odd(_mm512_mask_blend_pd(below, d, u),
                              _mm512_cmp_pd_mask(d, u, _CMP_NEQ_OQ)));
}

VCGRA_TARGET inline __m512d v64_xor(__m512d v, __m512i neg) {
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v), neg));
}

/// Format bits of x, given its signed grid bits `r` (r = x's own bits
/// when x is format-exact). A vector of normals packs directly; in one
/// holding a rare lane, a magnitude below 2^-bias becomes a signed zero,
/// one above the top a signed inf, and a NaN (judged on x's own
/// magnitude) the canonical NaN.
VCGRA_TARGET inline __m512i v64_encode(const V64& c, __m512i bits, __m512i r) {
  const __m512i sign = _mm512_srli_epi64(_mm512_and_si512(bits, c.sign), c.to_sign);
  const __m512i mag = _mm512_andnot_si512(c.sign, r);
  __m512i res = _mm512_or_si512(
      _mm512_add_epi64(_mm512_srli_epi64(mag, c.drop), c.enc_base), sign);
  const __mmask8 rare = v64_rare(c, r);
  if (__builtin_expect(rare == 0, 1)) return res;
  res = _mm512_mask_mov_epi64(res, rare, sign);
  res = _mm512_mask_mov_epi64(res, _mm512_cmpgt_epu64_mask(mag, c.max_mag),
                              _mm512_or_si512(sign, c.inf_base));
  res = _mm512_mask_mov_epi64(
      res, _mm512_cmpgt_epu64_mask(_mm512_andnot_si512(c.sign, bits), c.inf),
      c.nan_bits);
  return res;
}

}  // namespace

bool f64_available() { return available(); }

VCGRA_TARGET void f64_round_n(const Fmt& m, const double* in, double* out,
                              std::size_t n) {
  const V64 c = v64_consts(m);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    _mm512_mask_storeu_pd(out + i, lanes,
                          v64_round(c, _mm512_maskz_loadu_pd(lanes, in + i)));
  }
}

VCGRA_TARGET void f64_pack_n(const Fmt& m, const double* in,
                             std::uint64_t* out, std::size_t n) {
  const V64 c = v64_consts(m);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    const __m512i bits = _mm512_maskz_loadu_epi64(lanes, in + i);
    _mm512_mask_storeu_epi64(out + i, lanes, v64_encode(c, bits, bits));
  }
}

VCGRA_TARGET void f64_mul_coeff_n(const Fmt& m, const double* a, double coeff,
                                  double* out, std::size_t n) {
  const V64 c = v64_consts(m);
  const __m512d vc = _mm512_set1_pd(coeff);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    _mm512_mask_storeu_pd(out + i, lanes,
                          v64_mul(c, _mm512_maskz_loadu_pd(lanes, a + i), vc));
  }
}

VCGRA_TARGET void f64_mul_n(const Fmt& m, const double* a, const double* b,
                            double* out, std::size_t n) {
  const V64 c = v64_consts(m);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    _mm512_mask_storeu_pd(out + i, lanes,
                          v64_mul(c, _mm512_maskz_loadu_pd(lanes, a + i),
                                  _mm512_maskz_loadu_pd(lanes, b + i)));
  }
}

VCGRA_TARGET void f64_add_n(const Fmt& m, const double* a, const double* b,
                            u64 neg, double* out, std::size_t n) {
  const V64 c = v64_consts(m);
  const __m512i vneg = v_u64(neg);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    _mm512_mask_storeu_pd(
        out + i, lanes,
        v64_add(c, _mm512_maskz_loadu_pd(lanes, a + i),
                v64_xor(_mm512_maskz_loadu_pd(lanes, b + i), vneg)));
  }
}

VCGRA_TARGET void f64_axpy_n(const Fmt& m, const double* a, const double* x,
                             double coeff, u64 neg, double* out, std::size_t n) {
  const V64 c = v64_consts(m);
  const __m512d vc = _mm512_set1_pd(coeff);
  const __m512i vneg = v_u64(neg);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    const __m512d p = v64_mul(c, _mm512_maskz_loadu_pd(lanes, x + i), vc);
    _mm512_mask_storeu_pd(
        out + i, lanes,
        v64_add(c, _mm512_maskz_loadu_pd(lanes, a + i), v64_xor(p, vneg)));
  }
}

VCGRA_TARGET void f64_xpay_n(const Fmt& m, const double* x, double coeff,
                             const double* b, u64 neg, double* out,
                             std::size_t n) {
  const V64 c = v64_consts(m);
  const __m512d vc = _mm512_set1_pd(coeff);
  const __m512i vneg = v_u64(neg);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    const __m512d p = v64_mul(c, _mm512_maskz_loadu_pd(lanes, x + i), vc);
    _mm512_mask_storeu_pd(
        out + i, lanes,
        v64_add(c, p, v64_xor(_mm512_maskz_loadu_pd(lanes, b + i), vneg)));
  }
}

VCGRA_TARGET void mul_coeff_n(const Fmt& m, const std::uint64_t* a, u64 coeff,
                              std::uint64_t* out, std::size_t n) {
  const CoeffMul c(m, coeff);
  if (!lanes_fit(m) || c.cls != 1) {  // special coefficient: scalar ladder
    for (std::size_t i = 0; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
    return;
  }
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i va = v_load(a + i, lanes);
    const VStage stage = v_mul_coeff(m, va, c);
    // `out` may alias `a`: snapshot the loaded lanes before storing so
    // the special-class patch reads originals, not the vector result.
    __mmask8 patch = _kand_mask8(lanes, _knot_mask8(v_normal(m, va)));
    alignas(64) u64 ta[8];
    if (patch) _mm512_store_epi64(ta, va);
    _mm512_mask_storeu_epi64(out + i, lanes, stage.bits);
    while (patch) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(patch));
      out[i + lane] = mul_one_coeff(m, ta[lane], c);
      patch = static_cast<__mmask8>(patch & (patch - 1));
    }
  }
}

VCGRA_TARGET void mul_n(const Fmt& m, const std::uint64_t* a,
                        const std::uint64_t* b, std::uint64_t* out,
                        std::size_t n) {
  if (!lanes_fit(m)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
    return;
  }
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i va = v_load(a + i, lanes);
    const __m512i vb = v_load(b + i, lanes);
    const VStage stage = v_mul(m, va, vb);
    // `out` may alias either input: patch from register snapshots.
    __mmask8 patch = _kand_mask8(
        lanes, _knot_mask8(_kand_mask8(v_normal(m, va), v_normal(m, vb))));
    alignas(64) u64 ta[8], tb[8];
    if (patch) {
      _mm512_store_epi64(ta, va);
      _mm512_store_epi64(tb, vb);
    }
    _mm512_mask_storeu_epi64(out + i, lanes, stage.bits);
    while (patch) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(patch));
      out[i + lane] = mul_one(m, ta[lane], tb[lane]);
      patch = static_cast<__mmask8>(patch & (patch - 1));
    }
  }
}

VCGRA_TARGET void add_xor_n(const Fmt& m, const std::uint64_t* a,
                            const std::uint64_t* b, u64 b_xor,
                            std::uint64_t* out, std::size_t n) {
  const __m512i vxor = _mm512_set1_epi64(static_cast<long long>(b_xor));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i va = v_load(a + i, lanes);
    const __m512i vb = _mm512_xor_epi64(v_load(b + i, lanes), vxor);
    const __m512i sum = v_add(m, va, vb);
    // `out` may alias either input: patch from register snapshots (vb
    // already carries b_xor, so the scalar redo applies none).
    __mmask8 patch = _kand_mask8(
        lanes, _knot_mask8(_kand_mask8(v_normal(m, va), v_normal(m, vb))));
    alignas(64) u64 ta[8], tb[8];
    if (patch) {
      _mm512_store_epi64(ta, va);
      _mm512_store_epi64(tb, vb);
    }
    _mm512_mask_storeu_epi64(out + i, lanes, sum);
    while (patch) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(patch));
      out[i + lane] = add_one(m, ta[lane], tb[lane]);
      patch = static_cast<__mmask8>(patch & (patch - 1));
    }
  }
}

VCGRA_TARGET void axpy_n(const Fmt& m, const std::uint64_t* a,
                         const std::uint64_t* x, u64 coeff, u64 mul_xor,
                         std::uint64_t* out, std::size_t n) {
  const CoeffMul c(m, coeff);
  if (!lanes_fit(m) || c.cls != 1) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
    }
    return;
  }
  const __m512i vxor = _mm512_set1_epi64(static_cast<long long>(mul_xor));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i va = v_load(a + i, lanes);
    const __m512i vx = v_load(x + i, lanes);
    const VStage mul = v_mul_coeff(m, vx, c);
    const __m512i prod = _mm512_xor_epi64(mul.bits, vxor);
    const __m512i sum = v_add(m, va, prod);
    // Patch: special a/x operands, or a mul that clamped to zero/inf
    // (the vector add assumes normal operands). `out` may alias an
    // input, so snapshot the loaded lanes before storing.
    const __mmask8 ok = _kand_mask8(
        _kand_mask8(v_normal(m, va), v_normal(m, vx)), mul.res_norm);
    __mmask8 patch = _kand_mask8(lanes, _knot_mask8(ok));
    alignas(64) u64 ta[8], tx[8];
    if (patch) {
      _mm512_store_epi64(ta, va);
      _mm512_store_epi64(tx, vx);
    }
    _mm512_mask_storeu_epi64(out + i, lanes, sum);
    while (patch) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(patch));
      out[i + lane] =
          add_one(m, ta[lane], mul_one_coeff(m, tx[lane], c) ^ mul_xor);
      patch = static_cast<__mmask8>(patch & (patch - 1));
    }
  }
}

VCGRA_TARGET void xpay_n(const Fmt& m, const std::uint64_t* x, u64 coeff,
                         const std::uint64_t* b, u64 b_xor, std::uint64_t* out,
                         std::size_t n) {
  const CoeffMul c(m, coeff);
  if (!lanes_fit(m) || c.cls != 1) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
    }
    return;
  }
  const __m512i vxor = _mm512_set1_epi64(static_cast<long long>(b_xor));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i vx = v_load(x + i, lanes);
    const __m512i vb = _mm512_xor_epi64(v_load(b + i, lanes), vxor);
    const VStage mul = v_mul_coeff(m, vx, c);
    const __m512i sum = v_add(m, mul.bits, vb);
    // `out` may alias an input: snapshot before storing (vb already
    // carries b_xor, so the scalar redo applies none).
    const __mmask8 ok = _kand_mask8(
        _kand_mask8(v_normal(m, vx), v_normal(m, vb)), mul.res_norm);
    __mmask8 patch = _kand_mask8(lanes, _knot_mask8(ok));
    alignas(64) u64 tx[8], tb[8];
    if (patch) {
      _mm512_store_epi64(tx, vx);
      _mm512_store_epi64(tb, vb);
    }
    _mm512_mask_storeu_epi64(out + i, lanes, sum);
    while (patch) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(patch));
      out[i + lane] = add_one(m, mul_one_coeff(m, tx[lane], c), tb[lane]);
      patch = static_cast<__mmask8>(patch & (patch - 1));
    }
  }
}

VCGRA_TARGET void from_double_n(const Fmt& m, const double* in,
                                std::uint64_t* out, std::size_t n) {
  if (fpcore::f64_round_fits(m.we, m.wf)) {
    // Round the magnitude onto the format grid, then encode it: no lane
    // needs a patch (denormal doubles sit below every such format).
    const V64 c = v64_consts(m);
    for (std::size_t i = 0; i < n; i += 8) {
      const __mmask8 lanes = v_lanes(n, i);
      const __m512i bits = _mm512_maskz_loadu_epi64(lanes, in + i);
      _mm512_mask_storeu_epi64(out + i, lanes,
                               v64_encode(c, bits, v64_round_bits(c, bits)));
    }
    return;
  }
  // Wider formats (no workload builds one) take the scalar encoder.
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::encode_one(m, in[i]);
}

VCGRA_TARGET void to_double_n(const Fmt& m, const std::uint64_t* in,
                              double* out, std::size_t n) {
  if (m.wf > 52) {  // fraction wider than a double's: scalar whole-call
    for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::decode_one(m, in[i]);
    return;
  }
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i three = _mm512_set1_epi64(3);
  const __m512i exp_mask_v = _mm512_set1_epi64(static_cast<long long>(m.exp_mask));
  const __m512i frac_mask = _mm512_set1_epi64(static_cast<long long>(m.frac_mask));
  // dexp = (exponent - bias) + 1023, folded into one constant add.
  const __m512i rebias =
      _mm512_set1_epi64(static_cast<long long>(1023 - m.bias));

  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? 0xff : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i bits = v_load(in + i, lanes);
    const __m512i cls =
        _mm512_and_epi64(_mm512_srli_epi64(bits, m.shift + 1), three);
    const __m512i sign =
        _mm512_and_epi64(_mm512_srli_epi64(bits, m.shift), one);
    const __m512i exponent =
        _mm512_and_epi64(_mm512_srli_epi64(bits, m.wf), exp_mask_v);
    const __m512i fraction = _mm512_and_epi64(bits, frac_mask);
    const __m512i dexp = _mm512_add_epi64(exponent, rebias);

    // decode_one's exact normal-range assembly: the fraction widens
    // losslessly into a double's 52 bits.
    const __m512i res = _mm512_or_epi64(
        _mm512_or_epi64(_mm512_slli_epi64(sign, 63),
                        _mm512_slli_epi64(dexp, 52)),
        _mm512_slli_epi64(fraction, 52 - m.wf));

    const __mmask8 normal = _mm512_cmpeq_epi64_mask(cls, one);
    const __mmask8 in_range =
        _kand_mask8(_mm512_cmpgt_epi64_mask(dexp, _mm512_setzero_si512()),
                    _mm512_cmplt_epi64_mask(dexp, _mm512_set1_epi64(2047)));
    // Specials and out-of-double-range exponents redo through the scalar
    // decoder; snapshot before the store in case `out` overlays `in`
    // (the raw-bits boundary decodes in place).
    __mmask8 patch =
        _kand_mask8(lanes, _knot_mask8(_kand_mask8(normal, in_range)));
    alignas(64) u64 tbits[8];
    if (patch) _mm512_store_epi64(tbits, bits);
    _mm512_mask_storeu_epi64(reinterpret_cast<long long*>(out) + i, lanes,
                             res);
    while (patch) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(patch));
      out[i + lane] = fpcore::decode_one(m, tbits[lane]);
      patch = static_cast<__mmask8>(patch & (patch - 1));
    }
  }
}

#elif VCGRA_SIMD_NEON

// NEON port: the same transliteration at 2 encodings per uint64x2_t.
// Predicates are all-ones-per-lane uint64x2_t vectors (NEON has no mask
// registers); variable shifts go through USHL, whose signed-negative
// counts shift right and whose >=64 counts produce 0, matching the
// AVX-512 srlv/sllv semantics the x86 port relies on. The 64-bit
// significand product rides the 32x32->64 vmull_u32, which caps the
// vector multipliers at wf <= 31 (wider fractions fall back whole-call,
// like the x86 port's vpmullq cap at 2wf+2 <= 64). There is no 64-bit
// lane CLZ, so normalization counts leading zeros per lane through the
// scalar builtin — still branchless in the rounding arithmetic itself.

bool available() { return true; }  // AdvSIMD is architecturally mandatory

namespace {

/// vmull_u32 carries the wf+1-bit significands only while they fit a
/// 32-bit source lane. Wider fractions fall back to the scalar loop
/// whole-call.
bool lanes_fit(const Fmt& m) { return m.wf <= 31; }

inline uint64x2_t v_not(uint64x2_t k) {
  return veorq_u64(k, vdupq_n_u64(~std::uint64_t{0}));
}
/// Logical shifts by a runtime scalar count (USHL, negative = right).
inline uint64x2_t v_srl(uint64x2_t a, int k) {
  return vshlq_u64(a, vdupq_n_s64(-static_cast<std::int64_t>(k)));
}
inline uint64x2_t v_sll(uint64x2_t a, int k) {
  return vshlq_u64(a, vdupq_n_s64(static_cast<std::int64_t>(k)));
}
/// Per-lane variable logical shifts; counts are small non-negative u64.
inline uint64x2_t v_srlv(uint64x2_t a, uint64x2_t k) {
  return vshlq_u64(a, vnegq_s64(vreinterpretq_s64_u64(k)));
}
inline uint64x2_t v_sllv(uint64x2_t a, uint64x2_t k) {
  return vshlq_u64(a, vreinterpretq_s64_u64(k));
}
/// k ? v : u — argument order matches _mm512_mask_blend_epi64(k, u, v),
/// so the ported expressions read identically to the x86 section.
inline uint64x2_t v_blend(uint64x2_t k, uint64x2_t u, uint64x2_t v) {
  return vbslq_u64(k, v, u);
}
inline uint64x2_t v_maskz(uint64x2_t k, uint64x2_t v) {
  return vandq_u64(k, v);
}
/// Unsigned per-lane min (no 64-bit vmin on NEON).
inline uint64x2_t v_min(uint64x2_t a, uint64x2_t b) {
  return vbslq_u64(vcgtq_u64(a, b), b, a);
}
/// 64x64 significand product via vmull_u32; valid under lanes_fit.
inline uint64x2_t v_mul64(uint64x2_t a, uint64x2_t b) {
  return vmull_u32(vmovn_u64(a), vmovn_u64(b));
}
/// Leading-zero count per lane; 64 on zero, matching vplzcntq.
inline uint64x2_t v_lzcnt(uint64x2_t a) {
  u64 t[2];
  vst1q_u64(t, a);
  t[0] = t[0] ? static_cast<u64>(__builtin_clzll(t[0])) : 64;
  t[1] = t[1] ? static_cast<u64>(__builtin_clzll(t[1])) : 64;
  return vld1q_u64(t);
}

struct VStage {
  uint64x2_t bits;      // result encodings (valid on normal-operand lanes)
  uint64x2_t res_norm;  // ... of those, lanes whose result class is normal
};

/// Shared round-and-pack tail of both vector multipliers; mirrors
/// fpcore::mul_pack exactly (see the x86 v_mul_pack).
inline VStage v_mul_pack(const Fmt& m, uint64x2_t sign, uint64x2_t exp_base,
                         uint64x2_t product) {
  const uint64x2_t frac_mask = vdupq_n_u64(m.frac_mask);
  const uint64x2_t hidden = vdupq_n_u64(m.hidden);
  const uint64x2_t one = vdupq_n_u64(1);

  // top = product in [2,4); guard bit sits at wf-1+top.
  const uint64x2_t top = vandq_u64(v_srl(product, 2 * m.wf + 1), one);
  const uint64x2_t sh =
      vaddq_u64(vdupq_n_u64(static_cast<u64>(m.wf - 1)), top);
  const uint64x2_t frac_pre =
      vandq_u64(v_srlv(product, vaddq_u64(sh, one)), frac_mask);
  const uint64x2_t guard = vandq_u64(v_srlv(product, sh), one);
  const uint64x2_t below = vsubq_u64(v_sllv(one, sh), one);
  const uint64x2_t sticky = vandq_u64(vtstq_u64(product, below), one);
  const uint64x2_t round_up =
      vandq_u64(guard, vorrq_u64(sticky, vandq_u64(frac_pre, one)));
  uint64x2_t mant = vaddq_u64(vorrq_u64(hidden, frac_pre), round_up);
  const uint64x2_t exp_round = v_srl(mant, m.wf + 1);
  mant = v_srlv(mant, exp_round);

  uint64x2_t exponent = vaddq_u64(exp_base, vaddq_u64(top, exp_round));
  const uint64x2_t sign_shifted = v_sll(sign, m.shift);
  const uint64x2_t under = vcltzq_s64(vreinterpretq_s64_u64(exponent));
  const uint64x2_t over =
      vcgtq_s64(vreinterpretq_s64_u64(exponent),
                vdupq_n_s64(static_cast<std::int64_t>(m.exp_mask)));

  uint64x2_t res = vorrq_u64(
      vorrq_u64(v_sll(vorrq_u64(sign, vdupq_n_u64(2)), m.shift),
                v_sll(exponent, m.wf)),
      vandq_u64(mant, frac_mask));
  res = v_blend(under, res, sign_shifted);  // flush to zero
  res = v_blend(over, res, vorrq_u64(sign_shifted, vdupq_n_u64(m.inf_base)));

  VStage out;
  out.bits = res;
  out.res_norm = v_not(vorrq_u64(under, over));
  return out;
}

/// Vector fp_mul by a broadcast normal coefficient. Valid only on lanes
/// whose `a` class is normal; the caller patches the rest.
inline VStage v_mul_coeff(const Fmt& m, uint64x2_t va, const CoeffMul& c) {
  const uint64x2_t frac_mask = vdupq_n_u64(m.frac_mask);
  const uint64x2_t hidden = vdupq_n_u64(m.hidden);
  const uint64x2_t ma = vorrq_u64(vandq_u64(va, frac_mask), hidden);
  const uint64x2_t product =
      vmull_u32(vmovn_u64(ma), vdup_n_u32(static_cast<std::uint32_t>(c.mant)));
  const uint64x2_t exp_a =
      vandq_u64(v_srl(va, m.wf), vdupq_n_u64(m.exp_mask));
  const uint64x2_t exp_base = vaddq_u64(
      exp_a, vdupq_n_u64(static_cast<u64>(
                 static_cast<std::int64_t>(c.exponent) - m.bias)));
  const uint64x2_t sign = veorq_u64(
      vandq_u64(v_srl(va, m.shift), vdupq_n_u64(1)), vdupq_n_u64(c.sign));
  return v_mul_pack(m, sign, exp_base, product);
}

/// Vector fp_mul of two streams. Valid only on lanes where both classes
/// are normal.
inline VStage v_mul(const Fmt& m, uint64x2_t va, uint64x2_t vb) {
  const uint64x2_t frac_mask = vdupq_n_u64(m.frac_mask);
  const uint64x2_t hidden = vdupq_n_u64(m.hidden);
  const uint64x2_t ma = vorrq_u64(vandq_u64(va, frac_mask), hidden);
  const uint64x2_t mb = vorrq_u64(vandq_u64(vb, frac_mask), hidden);
  const uint64x2_t product = v_mul64(ma, mb);
  const uint64x2_t exp_mask_v = vdupq_n_u64(m.exp_mask);
  const uint64x2_t exp_a = vandq_u64(v_srl(va, m.wf), exp_mask_v);
  const uint64x2_t exp_b = vandq_u64(v_srl(vb, m.wf), exp_mask_v);
  const uint64x2_t exp_base =
      vaddq_u64(vaddq_u64(exp_a, exp_b),
                vdupq_n_u64(static_cast<u64>(-m.bias)));
  const uint64x2_t sign = vandq_u64(
      veorq_u64(v_srl(va, m.shift), v_srl(vb, m.shift)), vdupq_n_u64(1));
  return v_mul_pack(m, sign, exp_base, product);
}

/// Vector fp_add. Valid only on lanes where both classes are normal;
/// exact cancellation and exponent clamps are handled with blends.
inline uint64x2_t v_add(const Fmt& m, uint64x2_t va, uint64x2_t vb) {
  const uint64x2_t frac_mask = vdupq_n_u64(m.frac_mask);
  const uint64x2_t exp_mask_v = vdupq_n_u64(m.exp_mask);
  const uint64x2_t hidden = vdupq_n_u64(m.hidden);
  const uint64x2_t one = vdupq_n_u64(1);

  // Order by magnitude: X = larger (exp,frac); ties keep a.
  const uint64x2_t frac_a = vandq_u64(va, frac_mask);
  const uint64x2_t frac_b = vandq_u64(vb, frac_mask);
  const uint64x2_t exp_a = vandq_u64(v_srl(va, m.wf), exp_mask_v);
  const uint64x2_t exp_b = vandq_u64(v_srl(vb, m.wf), exp_mask_v);
  const uint64x2_t mag_a = vorrq_u64(v_sll(exp_a, m.wf), frac_a);
  const uint64x2_t mag_b = vorrq_u64(v_sll(exp_b, m.wf), frac_b);
  const uint64x2_t a_big = vcgeq_u64(mag_a, mag_b);
  const uint64x2_t x = v_blend(a_big, vb, va);
  const uint64x2_t y = v_blend(a_big, va, vb);
  const uint64x2_t exp_x = v_blend(a_big, exp_b, exp_a);
  const uint64x2_t exp_y = v_blend(a_big, exp_a, exp_b);

  // Alignment shift with the scalar core's width cap.
  uint64x2_t d = vsubq_u64(exp_x, exp_y);
  d = v_min(d, vdupq_n_u64(static_cast<u64>(m.wf + 4)));
  const uint64x2_t mx =
      v_sll(vorrq_u64(vandq_u64(x, frac_mask), hidden), 3);
  const uint64x2_t my_full =
      v_sll(vorrq_u64(vandq_u64(y, frac_mask), hidden), 3);
  uint64x2_t my = v_srlv(my_full, d);
  const uint64x2_t sticky_shift = v_not(vceqq_u64(v_sllv(my, d), my_full));
  my = vorrq_u64(my, vandq_u64(sticky_shift, one));

  // s = eff_sub ? mx - my : mx + my via conditional negation.
  const uint64x2_t sign_x = vandq_u64(v_srl(x, m.shift), one);
  const uint64x2_t sign_y = vandq_u64(v_srl(y, m.shift), one);
  const uint64x2_t eff = veorq_u64(sign_x, sign_y);
  const uint64x2_t neg = vsubq_u64(vdupq_n_u64(0), eff);
  const uint64x2_t s =
      vaddq_u64(vaddq_u64(mx, veorq_u64(my, neg)), eff);
  const uint64x2_t cancel = vceqq_u64(s, vdupq_n_u64(0));

  // Normalize: leading 1 to bit wf+3 (lzcnt of 0 is 64 — cancel lanes
  // are blended out below, their garbage never escapes).
  const int t = m.wf + 3;
  const uint64x2_t k = vsubq_u64(vdupq_n_u64(63), v_lzcnt(s));
  const uint64x2_t carry =
      vcgtq_s64(vreinterpretq_s64_u64(k), vdupq_n_s64(t));
  const uint64x2_t s_r = vorrq_u64(v_srl(s, 1), vandq_u64(s, one));
  const uint64x2_t shl = vandq_u64(
      vsubq_u64(vdupq_n_u64(static_cast<u64>(t)), k), vdupq_n_u64(63));
  const uint64x2_t s_l = v_sllv(s, shl);
  const uint64x2_t s_norm = v_blend(carry, s_l, s_r);

  const uint64x2_t frac_pre = vandq_u64(v_srl(s_norm, 3), frac_mask);
  const uint64x2_t guard = vandq_u64(v_srl(s_norm, 2), one);
  const uint64x2_t sticky = vandq_u64(vtstq_u64(s_norm, vdupq_n_u64(3)), one);
  const uint64x2_t round_up =
      vandq_u64(guard, vorrq_u64(sticky, vandq_u64(frac_pre, one)));
  uint64x2_t mant = vaddq_u64(vorrq_u64(hidden, frac_pre), round_up);
  const uint64x2_t mant_carry = v_srl(mant, m.wf + 1);
  mant = v_srlv(mant, mant_carry);

  uint64x2_t exponent =
      vaddq_u64(exp_x, vsubq_u64(k, vdupq_n_u64(static_cast<u64>(t))));
  exponent = vaddq_u64(exponent, mant_carry);

  const uint64x2_t sign_shifted = v_sll(sign_x, m.shift);
  const uint64x2_t under = vcltzq_s64(vreinterpretq_s64_u64(exponent));
  const uint64x2_t over =
      vcgtq_s64(vreinterpretq_s64_u64(exponent),
                vreinterpretq_s64_u64(exp_mask_v));

  uint64x2_t res = vorrq_u64(
      vorrq_u64(v_sll(vorrq_u64(sign_x, vdupq_n_u64(2)), m.shift),
                v_sll(exponent, m.wf)),
      vandq_u64(mant, frac_mask));
  res = v_blend(under, res, sign_shifted);
  res = v_blend(over, res,
                vorrq_u64(sign_shifted, vdupq_n_u64(m.inf_base)));
  res = v_maskz(v_not(cancel), res);  // +0 on cancel
  return res;
}

/// Class-of-lane == normal predicate.
inline uint64x2_t v_normal(const Fmt& m, uint64x2_t v) {
  const uint64x2_t cls =
      vandq_u64(v_srl(v, m.shift + 1), vdupq_n_u64(3));
  return vceqq_u64(cls, vdupq_n_u64(1));
}

}  // namespace

void mul_coeff_n(const Fmt& m, const std::uint64_t* a, u64 coeff,
                 std::uint64_t* out, std::size_t n) {
  const CoeffMul c(m, coeff);
  if (!lanes_fit(m) || c.cls != 1) {  // special coefficient: scalar ladder
    for (std::size_t i = 0; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
    return;
  }
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const VStage stage = v_mul_coeff(m, va, c);
    // `out` may alias `a`: snapshot the loaded lanes before storing so
    // the special-class patch reads originals, not the vector result.
    const uint64x2_t patch = v_not(v_normal(m, va));
    u64 ta[2];
    vst1q_u64(ta, va);
    vst1q_u64(out + i, stage.bits);
    if (vgetq_lane_u64(patch, 0)) out[i] = mul_one_coeff(m, ta[0], c);
    if (vgetq_lane_u64(patch, 1)) out[i + 1] = mul_one_coeff(m, ta[1], c);
  }
  for (; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
}

void mul_n(const Fmt& m, const std::uint64_t* a, const std::uint64_t* b,
           std::uint64_t* out, std::size_t n) {
  if (!lanes_fit(m)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
    return;
  }
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    const VStage stage = v_mul(m, va, vb);
    // `out` may alias either input: patch from register snapshots.
    const uint64x2_t patch =
        v_not(vandq_u64(v_normal(m, va), v_normal(m, vb)));
    u64 ta[2], tb[2];
    vst1q_u64(ta, va);
    vst1q_u64(tb, vb);
    vst1q_u64(out + i, stage.bits);
    if (vgetq_lane_u64(patch, 0)) out[i] = mul_one(m, ta[0], tb[0]);
    if (vgetq_lane_u64(patch, 1)) out[i + 1] = mul_one(m, ta[1], tb[1]);
  }
  for (; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
}

void add_xor_n(const Fmt& m, const std::uint64_t* a, const std::uint64_t* b,
               u64 b_xor, std::uint64_t* out, std::size_t n) {
  const uint64x2_t vxor = vdupq_n_u64(b_xor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = veorq_u64(vld1q_u64(b + i), vxor);
    const uint64x2_t sum = v_add(m, va, vb);
    // `out` may alias either input: patch from register snapshots (vb
    // already carries b_xor, so the scalar redo applies none).
    const uint64x2_t patch =
        v_not(vandq_u64(v_normal(m, va), v_normal(m, vb)));
    u64 ta[2], tb[2];
    vst1q_u64(ta, va);
    vst1q_u64(tb, vb);
    vst1q_u64(out + i, sum);
    if (vgetq_lane_u64(patch, 0)) out[i] = add_one(m, ta[0], tb[0]);
    if (vgetq_lane_u64(patch, 1)) out[i + 1] = add_one(m, ta[1], tb[1]);
  }
  for (; i < n; ++i) out[i] = add_one(m, a[i], b[i] ^ b_xor);
}

void axpy_n(const Fmt& m, const std::uint64_t* a, const std::uint64_t* x,
            u64 coeff, u64 mul_xor, std::uint64_t* out, std::size_t n) {
  const CoeffMul c(m, coeff);
  if (!lanes_fit(m) || c.cls != 1) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
    }
    return;
  }
  const uint64x2_t vxor = vdupq_n_u64(mul_xor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vx = vld1q_u64(x + i);
    const VStage mul = v_mul_coeff(m, vx, c);
    const uint64x2_t prod = veorq_u64(mul.bits, vxor);
    const uint64x2_t sum = v_add(m, va, prod);
    // Patch: special a/x operands, or a mul that clamped to zero/inf
    // (the vector add assumes normal operands). `out` may alias an
    // input, so snapshot the loaded lanes before storing.
    const uint64x2_t ok = vandq_u64(
        vandq_u64(v_normal(m, va), v_normal(m, vx)), mul.res_norm);
    const uint64x2_t patch = v_not(ok);
    u64 ta[2], tx[2];
    vst1q_u64(ta, va);
    vst1q_u64(tx, vx);
    vst1q_u64(out + i, sum);
    if (vgetq_lane_u64(patch, 0)) {
      out[i] = add_one(m, ta[0], mul_one_coeff(m, tx[0], c) ^ mul_xor);
    }
    if (vgetq_lane_u64(patch, 1)) {
      out[i + 1] = add_one(m, ta[1], mul_one_coeff(m, tx[1], c) ^ mul_xor);
    }
  }
  for (; i < n; ++i) {
    out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
  }
}

void xpay_n(const Fmt& m, const std::uint64_t* x, u64 coeff,
            const std::uint64_t* b, u64 b_xor, std::uint64_t* out,
            std::size_t n) {
  const CoeffMul c(m, coeff);
  if (!lanes_fit(m) || c.cls != 1) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
    }
    return;
  }
  const uint64x2_t vxor = vdupq_n_u64(b_xor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t vx = vld1q_u64(x + i);
    const uint64x2_t vb = veorq_u64(vld1q_u64(b + i), vxor);
    const VStage mul = v_mul_coeff(m, vx, c);
    const uint64x2_t sum = v_add(m, mul.bits, vb);
    // `out` may alias an input: snapshot before storing (vb already
    // carries b_xor, so the scalar redo applies none).
    const uint64x2_t ok = vandq_u64(
        vandq_u64(v_normal(m, vx), v_normal(m, vb)), mul.res_norm);
    const uint64x2_t patch = v_not(ok);
    u64 tx[2], tb[2];
    vst1q_u64(tx, vx);
    vst1q_u64(tb, vb);
    vst1q_u64(out + i, sum);
    if (vgetq_lane_u64(patch, 0)) {
      out[i] = add_one(m, mul_one_coeff(m, tx[0], c), tb[0]);
    }
    if (vgetq_lane_u64(patch, 1)) {
      out[i + 1] = add_one(m, mul_one_coeff(m, tx[1], c), tb[1]);
    }
  }
  for (; i < n; ++i) {
    out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
  }
}

void from_double_n(const Fmt& m, const double* in, std::uint64_t* out,
                   std::size_t n) {
  if (m.wf >= 52) {  // no fraction bits to drop: scalar path
    for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::encode_one(m, in[i]);
    return;
  }
  const int drop = 52 - m.wf;
  const uint64x2_t one = vdupq_n_u64(1);
  const uint64x2_t mask52 = vdupq_n_u64((u64{1} << 52) - 1);
  const uint64x2_t frac_mask = vdupq_n_u64(m.frac_mask);
  const uint64x2_t exp_mask_v = vdupq_n_u64(m.exp_mask);
  const uint64x2_t hidden = vdupq_n_u64(m.hidden);
  const uint64x2_t sticky_below =
      vdupq_n_u64((u64{1} << (drop - 1)) - 1);

  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t d =
        vld1q_u64(reinterpret_cast<const std::uint64_t*>(in + i));
    const uint64x2_t sign = vshrq_n_u64(d, 63);
    const uint64x2_t dexp =
        vandq_u64(vshrq_n_u64(d, 52), vdupq_n_u64(0x7ff));
    const uint64x2_t dfrac = vandq_u64(d, mask52);
    const uint64x2_t exp_all1 = vceqq_u64(dexp, vdupq_n_u64(0x7ff));
    const uint64x2_t exp_zero = vceqq_u64(dexp, vdupq_n_u64(0));
    const uint64x2_t frac_zero = vceqq_u64(dfrac, vdupq_n_u64(0));
    const uint64x2_t denormal = vandq_u64(exp_zero, v_not(frac_zero));

    // Normal-double path (RNE from 52 to wf fraction bits).
    uint64x2_t frac = v_srl(dfrac, drop);
    const uint64x2_t guard = vandq_u64(v_srl(dfrac, drop - 1), one);
    const uint64x2_t sticky =
        vandq_u64(vtstq_u64(dfrac, sticky_below), one);
    const uint64x2_t round_up =
        vandq_u64(guard, vorrq_u64(sticky, vandq_u64(frac, one)));
    frac = vaddq_u64(frac, round_up);
    const uint64x2_t frac_carry = vceqq_u64(frac, hidden);
    frac = v_maskz(v_not(frac_carry), frac);
    // exponent = (e2 - 1) + bias = dexp - 1023 + bias (+ rounding carry).
    uint64x2_t exponent = vaddq_u64(
        dexp, vdupq_n_u64(static_cast<u64>(m.bias - 1023)));
    exponent = vaddq_u64(exponent, vandq_u64(frac_carry, one));

    const uint64x2_t sign_shifted = v_sll(sign, m.shift);
    const uint64x2_t under = vcltzq_s64(vreinterpretq_s64_u64(exponent));
    const uint64x2_t over =
        vcgtq_s64(vreinterpretq_s64_u64(exponent),
                  vreinterpretq_s64_u64(exp_mask_v));

    const uint64x2_t inf_bits =
        vorrq_u64(sign_shifted, vdupq_n_u64(m.inf_base));
    uint64x2_t res = vorrq_u64(
        vorrq_u64(v_sll(vorrq_u64(sign, vdupq_n_u64(2)), m.shift),
                  v_sll(exponent, m.wf)),
        vandq_u64(frac, frac_mask));
    res = v_blend(under, res, sign_shifted);
    res = v_blend(over, res, inf_bits);
    // Specials: ±0, ±inf, NaN.
    res = v_blend(vandq_u64(exp_zero, frac_zero), res, sign_shifted);
    res = v_blend(vandq_u64(exp_all1, frac_zero), res, inf_bits);
    res = v_blend(vandq_u64(exp_all1, v_not(frac_zero)), res,
                  vdupq_n_u64(m.nan_bits));
    vst1q_u64(out + i, res);

    // Denormal doubles renormalize through the scalar encoder (rare).
    if (vgetq_lane_u64(denormal, 0)) out[i] = fpcore::encode_one(m, in[i]);
    if (vgetq_lane_u64(denormal, 1)) {
      out[i + 1] = fpcore::encode_one(m, in[i + 1]);
    }
  }
  for (; i < n; ++i) out[i] = fpcore::encode_one(m, in[i]);
}

void to_double_n(const Fmt& m, const std::uint64_t* in, double* out,
                 std::size_t n) {
  if (m.wf > 52) {  // fraction wider than a double's: scalar whole-call
    for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::decode_one(m, in[i]);
    return;
  }
  const uint64x2_t one = vdupq_n_u64(1);
  const uint64x2_t three = vdupq_n_u64(3);
  const uint64x2_t exp_mask_v = vdupq_n_u64(m.exp_mask);
  const uint64x2_t frac_mask = vdupq_n_u64(m.frac_mask);
  // dexp = (exponent - bias) + 1023, folded into one constant add.
  const uint64x2_t rebias =
      vdupq_n_u64(static_cast<u64>(1023 - m.bias));

  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t bits = vld1q_u64(in + i);
    const uint64x2_t cls = vandq_u64(v_srl(bits, m.shift + 1), three);
    const uint64x2_t sign = vandq_u64(v_srl(bits, m.shift), one);
    const uint64x2_t exponent = vandq_u64(v_srl(bits, m.wf), exp_mask_v);
    const uint64x2_t fraction = vandq_u64(bits, frac_mask);
    const uint64x2_t dexp = vaddq_u64(exponent, rebias);

    // decode_one's exact normal-range assembly: the fraction widens
    // losslessly into a double's 52 bits.
    const uint64x2_t res = vorrq_u64(
        vorrq_u64(vshlq_n_u64(sign, 63), v_sll(dexp, 52)),
        v_sll(fraction, 52 - m.wf));

    const uint64x2_t normal = vceqq_u64(cls, one);
    const uint64x2_t in_range = vandq_u64(
        vcgtzq_s64(vreinterpretq_s64_u64(dexp)),
        vcltq_s64(vreinterpretq_s64_u64(dexp), vdupq_n_s64(2047)));
    // Specials and out-of-double-range exponents redo through the scalar
    // decoder; snapshot before the store in case `out` overlays `in`
    // (the raw-bits boundary decodes in place).
    const uint64x2_t patch = v_not(vandq_u64(normal, in_range));
    u64 tbits[2];
    vst1q_u64(tbits, bits);
    vst1q_u64(reinterpret_cast<std::uint64_t*>(out) + i, res);
    if (vgetq_lane_u64(patch, 0)) out[i] = fpcore::decode_one(m, tbits[0]);
    if (vgetq_lane_u64(patch, 1)) {
      out[i + 1] = fpcore::decode_one(m, tbits[1]);
    }
  }
  for (; i < n; ++i) out[i] = fpcore::decode_one(m, in[i]);
}

#else  // portable stubs; available() keeps them unreachable.

bool available() { return false; }

void mul_n(const Fmt& m, const std::uint64_t* a, const std::uint64_t* b,
           std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
}
void mul_coeff_n(const Fmt& m, const std::uint64_t* a, u64 coeff,
                 std::uint64_t* out, std::size_t n) {
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
}
void add_xor_n(const Fmt& m, const std::uint64_t* a, const std::uint64_t* b,
               u64 b_xor, std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add_one(m, a[i], b[i] ^ b_xor);
}
void axpy_n(const Fmt& m, const std::uint64_t* a, const std::uint64_t* x,
            u64 coeff, u64 mul_xor, std::uint64_t* out, std::size_t n) {
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
  }
}
void xpay_n(const Fmt& m, const std::uint64_t* x, u64 coeff,
            const std::uint64_t* b, u64 b_xor, std::uint64_t* out,
            std::size_t n) {
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
  }
}
void from_double_n(const Fmt& m, const double* in, std::uint64_t* out,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::encode_one(m, in[i]);
}
void to_double_n(const Fmt& m, const std::uint64_t* in, double* out,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::decode_one(m, in[i]);
}

#endif  // VCGRA_SIMD_X86

#if !VCGRA_SIMD_X86
// The binary64 domain has no NEON port yet: batch.cpp runs the scalar core.
bool f64_available() { return false; }
#endif

}  // namespace vcgra::softfloat::simd
