#include "vcgra/softfloat/batch.hpp"

#include <algorithm>

#include "batch_simd.hpp"
#include "fp_core.hpp"

namespace vcgra::softfloat {

namespace {

using fpcore::add_one;
using fpcore::CoeffMul;
using fpcore::decode_one;
using fpcore::encode_one;
using fpcore::Fmt;
using fpcore::mul_one;
using fpcore::mul_one_coeff;
using u64 = std::uint64_t;

/// SIMD kicks in above this length: below it the vector setup (constant
/// broadcasts, dispatch) costs more than it saves.
constexpr std::size_t kSimdThreshold = 32;

bool use_simd(std::size_t n) { return n >= kSimdThreshold && simd::available(); }

/// fp_mac_n runs whole windows this many at a time (stack scratch for
/// one gathered column and the group's accumulators).
constexpr std::size_t kMacGroup = 256;

/// fp_mac_n's side-by-side path needs at least one SIMD width of whole
/// windows: a step's axpy pass over fewer accumulators fills no vector.
constexpr std::size_t kMacMinGroup = 8;

}  // namespace

std::uint64_t fp_encode_double(const FpFormat& format, double value) {
  return encode_one(Fmt(format), value);
}

double fp_decode_double(const FpFormat& format, std::uint64_t bits) {
  return decode_one(Fmt(format), bits);
}

void fp_mul_n(const FpFormat& format, const std::uint64_t* a,
              const std::uint64_t* b, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::mul_n(m, a, b, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
}

void fp_mul_coeff_n(const FpFormat& format, const std::uint64_t* a,
                    std::uint64_t coeff, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::mul_coeff_n(m, a, coeff, out, n);
    return;
  }
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
}

void fp_axpy_n(const FpFormat& format, const std::uint64_t* a,
               const std::uint64_t* x, std::uint64_t coeff,
               std::uint64_t mul_xor, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::axpy_n(m, a, x, coeff, mul_xor, out, n);
    return;
  }
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
  }
}

void fp_xpay_n(const FpFormat& format, const std::uint64_t* x,
               std::uint64_t coeff, const std::uint64_t* b,
               std::uint64_t b_xor, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::xpay_n(m, x, coeff, b, b_xor, out, n);
    return;
  }
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
  }
}

void fp_add_xor_n(const FpFormat& format, const std::uint64_t* a,
                  const std::uint64_t* b, std::uint64_t b_xor,
                  std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::add_xor_n(m, a, b, b_xor, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = add_one(m, a[i], b[i] ^ b_xor);
}

std::size_t fp_mac_n(const FpFormat& format, const std::uint64_t* x,
                     std::uint64_t coeff, std::uint32_t count,
                     std::uint64_t* out, std::size_t n,
                     std::uint64_t* acc_bits, std::uint32_t* filled) {
  // Each step's add consumes the previous step's rounded result, so one
  // window is a serial chain; consecutive windows are independent. The
  // head (an in-flight window) and the tail (a partial window carried
  // out through acc_bits/filled) step serially; whole windows in between
  // run kMacGroup at a time, one SIMD axpy pass per step over the
  // group's accumulators. Every window keeps its exact rounding sequence.
  // The passes call the SIMD kernels directly: fp_axpy_n's elementwise
  // threshold would send groups of 8-31 windows to the scalar loop.
  // Hosts without SIMD lanes keep the serial chain throughout.
  const Fmt m(format);
  const CoeffMul c(m, coeff);
  u64 acc = *acc_bits;
  std::uint32_t fill = *filled;
  std::size_t emitted = 0;
  std::size_t i = 0;
  const auto step = [&] {
    acc = add_one(m, acc, mul_one_coeff(m, x[i++], c));
    if (++fill == count) {
      out[emitted++] = acc;
      acc = m.zero(0);
      fill = 0;
    }
  };
  while (fill != 0 && i < n) step();

  const std::size_t windows = count == 0 ? 0 : (n - i) / count;
  if (windows >= kMacMinGroup && simd::available()) {
    alignas(64) u64 col[kMacGroup];
    alignas(64) u64 group[kMacGroup];
    const u64 zero = m.zero(0);
    for (std::size_t done = 0; done < windows;) {
      const std::size_t g = std::min(kMacGroup, windows - done);
      const u64* base = x + i;
      // Step 0 from a +0 accumulator: add(+0, p) is p except that a zero
      // product becomes +0 and a NaN the canonical NaN (add_one's
      // special-class rules), so it is the product pass plus a cheap fix.
      for (std::size_t w = 0; w < g; ++w) col[w] = base[w * count];
      simd::mul_coeff_n(m, col, coeff, group, g);
      for (std::size_t w = 0; w < g; ++w) group[w] = add_one(m, zero, group[w]);
      for (std::uint32_t k = 1; k < count; ++k) {
        for (std::size_t w = 0; w < g; ++w) col[w] = base[w * count + k];
        simd::axpy_n(m, group, col, coeff, 0, group, g);
      }
      std::copy(group, group + g, out + emitted);
      emitted += g;
      done += g;
      i += g * count;
    }
  }

  while (i < n) step();
  *acc_bits = acc;
  *filled = fill;
  return emitted;
}

void fp_from_double_n(const FpFormat& format, const double* in,
                      std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::from_double_n(m, in, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = encode_one(m, in[i]);
}

void fp_to_double_n(const FpFormat& format, const std::uint64_t* in,
                    double* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::to_double_n(m, in, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = decode_one(m, in[i]);
}

}  // namespace vcgra::softfloat
