// AVX-512 lanes for the batch FloPoCo kernels: the binary64 value domain
// and the conversions between doubles and format encodings.
//
// Every step below is the vector transliteration of the scalar core in
// fp_core.hpp: 8 lanes per 512-bit register, format constants broadcast
// once per call, data-dependent control flow turned into mask blends.
// Outputs are bit-identical to the portable loops in batch.cpp for every
// input (asserted by the conversion and binary64-kernel fuzz suites in
// test_exec_plan). The bits-domain arithmetic (fp_mul_n, fp_add_xor_n,
// fp_axpy_n, fp_xpay_n, fp_mac_n) has no lanes: the plan executor runs
// it only for sweeps the binary64 domain cannot carry.
//
// The port is compiled with per-function target attributes, so the
// object file links into a baseline x86-64 build; available() gates
// execution at runtime.
#include "batch_simd.hpp"

#if VCGRA_SIMD_X86
#include <immintrin.h>
// GCC's avx512 headers trip -Wmaybe-uninitialized on the _mm512_maskz_*
// idiom (the masked-off operand is intentionally undefined).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

namespace vcgra::softfloat::simd {

#if VCGRA_SIMD_X86

using fpcore::Fmt;
using u64 = std::uint64_t;

#define VCGRA_TARGET __attribute__((target("avx512f,avx512cd,avx512dq")))

bool available() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512cd") &&
                         __builtin_cpu_supports("avx512dq");
  return ok;
}

namespace {

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
  // Shift counts, per lane: the vector-count shift is one uop where a
  // broadcast scalar count takes two.
  __m512i drop;      // fpcore::F64Fmt::drop
  __m512i to_sign;   // 63 - (we + wf): double sign bit -> format sign bit
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
  c.drop = v_u64(static_cast<u64>(k.drop));
  c.to_sign = v_u64(static_cast<u64>(63 - m.shift));
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
      _mm512_and_si512(_mm512_srlv_epi64(bits, c.drop), v_u64(1));
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
  const __m512i sign = _mm512_srlv_epi64(_mm512_and_si512(bits, c.sign), c.to_sign);
  const __m512i mag = _mm512_andnot_si512(c.sign, r);
  __m512i res = _mm512_or_si512(
      _mm512_add_epi64(_mm512_srlv_epi64(mag, c.drop), c.enc_base), sign);
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

VCGRA_TARGET void from_double_n(const Fmt& m, const double* in,
                                std::uint64_t* out, std::size_t n) {
  // Round the magnitude onto the format grid, then encode it: no lane
  // needs a patch (denormal doubles sit below every such format).
  const V64 c = v64_consts(m);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    const __m512i bits = _mm512_maskz_loadu_epi64(lanes, in + i);
    _mm512_mask_storeu_epi64(out + i, lanes,
                             v64_encode(c, bits, v64_round_bits(c, bits)));
  }
}

VCGRA_TARGET bool to_double_n(const Fmt& m, const std::uint64_t* in,
                              double* out, std::size_t n) {
  // A clean normal (class 01, nothing above it: bits in [2, 4) << shift,
  // one unsigned compare per vector) decodes as its exponent and fraction
  // fields widened into a double's and rebiased, with the sign moved to
  // bit 63; it is canonical by construction. Every other lane (a zero,
  // inf or NaN, or bits above the format) redoes through the scalar
  // decoder and canonicity check, from a snapshot taken before the store
  // in case `out` overlays `in`. Shift counts are per-lane vectors: one
  // uop each, where a broadcast count costs two.
  const __m512i fields = v_u64(m.sign_bit - 1);
  const __m512i to_frac = v_u64(static_cast<u64>(52 - m.wf));
  const __m512i to_sign = v_u64(static_cast<u64>(63 - m.shift));
  const __m512i rebias = v_u64(static_cast<u64>(1023 - m.bias) << 52);
  const __m512i sign = v_u64(fpcore::kF64Sign);
  const __m512i normal_lo = v_u64(m.sign_bit << 1);
  bool canonical = true;
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes = v_lanes(n, i);
    const __m512i bits = _mm512_maskz_loadu_epi64(lanes, in + i);
    const __m512i magnitude = _mm512_add_epi64(
        _mm512_sllv_epi64(_mm512_and_si512(bits, fields), to_frac), rebias);
    // 0xF8: magnitude | (shifted bits & sign).
    const __m512i res = _mm512_ternarylogic_epi64(
        magnitude, _mm512_sllv_epi64(bits, to_sign), sign, 0xF8);
    __mmask8 rare = _mm512_mask_cmpge_epu64_mask(
        lanes, _mm512_sub_epi64(bits, normal_lo), normal_lo);
    if (__builtin_expect(rare == 0, 1)) {
      _mm512_mask_storeu_epi64(out + i, lanes, res);
      continue;
    }
    alignas(64) u64 tbits[8];
    _mm512_store_epi64(tbits, bits);
    _mm512_mask_storeu_epi64(out + i, lanes, res);
    while (rare) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(rare));
      const u64 word = tbits[lane];
      out[i + lane] = fpcore::decode_one(m, word);
      canonical = canonical && fpcore::canonical_one(m, word) == word;
      rare = static_cast<__mmask8>(rare & (rare - 1));
    }
  }
  return canonical;
}

#else  // no lanes: batch.cpp runs the scalar core.

bool available() { return false; }

#endif  // VCGRA_SIMD_X86

}  // namespace vcgra::softfloat::simd
