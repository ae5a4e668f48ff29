#include "vcgra/softfloat/batch.hpp"

#include <algorithm>
#include <bit>
#include <compare>
#include <iterator>
#include <stdexcept>

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

/// fp_f64_mac_n runs whole windows this many at a time (stack scratch for
/// one gathered column and the group's accumulators).
constexpr std::size_t kMacGroup = 256;

/// fp_f64_mac_n's side-by-side path needs at least one SIMD width of whole
/// windows: a step's axpy pass over fewer accumulators fills no vector.
constexpr std::size_t kMacMinGroup = 8;

#if VCGRA_SIMD_X86
/// Formats whose conversions the AVX-512 lanes carry, on hosts that have them.
bool conversion_lanes(const Fmt& m) {
  return fpcore::f64_round_fits(m.we, m.wf) && simd::available();
}
#endif

}  // namespace

std::uint64_t fp_encode_double(const FpFormat& format, double value) {
  return encode_one(Fmt(format), value);
}

double fp_decode_double(const FpFormat& format, std::uint64_t bits) {
  return decode_one(Fmt(format), bits);
}

// The bits-domain arithmetic is the scalar core: the plan executor runs it
// only for sweeps the binary64 domain cannot carry (a non-canonical
// encoding, a format past its bound, a host without AVX-512).

void fp_mul_n(const FpFormat& format, const std::uint64_t* a,
              const std::uint64_t* b, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
}

void fp_mul_coeff_n(const FpFormat& format, const std::uint64_t* a,
                    std::uint64_t coeff, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
}

void fp_axpy_n(const FpFormat& format, const std::uint64_t* a,
               const std::uint64_t* x, std::uint64_t coeff,
               std::uint64_t mul_xor, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
  }
}

void fp_xpay_n(const FpFormat& format, const std::uint64_t* x,
               std::uint64_t coeff, const std::uint64_t* b,
               std::uint64_t b_xor, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
  }
}

void fp_add_xor_n(const FpFormat& format, const std::uint64_t* a,
                  const std::uint64_t* b, std::uint64_t b_xor,
                  std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  for (std::size_t i = 0; i < n; ++i) out[i] = add_one(m, a[i], b[i] ^ b_xor);
}

std::size_t fp_mac_n(const FpFormat& format, const std::uint64_t* x,
                     std::uint64_t coeff, std::uint32_t count,
                     std::uint64_t* out, std::size_t n,
                     std::uint64_t* acc_bits, std::uint32_t* filled) {
  const Fmt m(format);
  const CoeffMul c(m, coeff);
  u64 acc = *acc_bits;
  std::uint32_t fill = *filled;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc = add_one(m, acc, mul_one_coeff(m, x[i], c));
    if (++fill == count) {
      out[emitted++] = acc;
      acc = m.zero(0);
      fill = 0;
    }
  }
  *acc_bits = acc;
  *filled = fill;
  return emitted;
}

void fp_from_double_n(const FpFormat& format, const double* in,
                      std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
#if VCGRA_SIMD_X86
  if (conversion_lanes(m)) {
    simd::from_double_n(m, in, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = encode_one(m, in[i]);
}

bool fp_to_double_n(const FpFormat& format, const std::uint64_t* in,
                    double* out, std::size_t n) {
  const Fmt m(format);
#if VCGRA_SIMD_X86
  if (conversion_lanes(m)) return simd::to_double_n(m, in, out, n);
#endif
  bool canonical = true;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 bits = in[i];  // `out` may overlay `in`
    out[i] = decode_one(m, bits);
    canonical = canonical && fpcore::canonical_one(m, bits) == bits;
  }
  return canonical;
}

namespace {

/// Reads encodings as FpValues, so std::vector's range constructor sizes
/// the vector once and constructs every element in place.
class FpValueReader {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = FpValue;
  using difference_type = std::ptrdiff_t;
  using pointer = const FpValue*;
  using reference = FpValue;

  FpValueReader(FpFormat format, const u64* p) : format_(format), p_(p) {}

  FpValue operator*() const { return FpValue(format_, *p_); }
  FpValue operator[](difference_type k) const { return FpValue(format_, p_[k]); }
  FpValueReader& operator++() { ++p_; return *this; }
  FpValueReader operator++(int) { return FpValueReader(format_, p_++); }
  FpValueReader& operator--() { --p_; return *this; }
  FpValueReader operator--(int) { return FpValueReader(format_, p_--); }
  FpValueReader& operator+=(difference_type k) { p_ += k; return *this; }
  FpValueReader& operator-=(difference_type k) { p_ -= k; return *this; }
  FpValueReader operator+(difference_type k) const { return {format_, p_ + k}; }
  FpValueReader operator-(difference_type k) const { return {format_, p_ - k}; }
  friend FpValueReader operator+(difference_type k, const FpValueReader& r) {
    return r + k;
  }
  difference_type operator-(const FpValueReader& r) const { return p_ - r.p_; }
  bool operator==(const FpValueReader& r) const { return p_ == r.p_; }
  std::strong_ordering operator<=>(const FpValueReader& r) const {
    return p_ <=> r.p_;
  }

 private:
  FpFormat format_;
  const u64* p_;
};

}  // namespace

std::vector<FpValue> fp_values_n(const FpFormat& format, const std::uint64_t* in,
                                 std::size_t n) {
  return std::vector<FpValue>(FpValueReader(format, in),
                              FpValueReader(format, in + n));
}

// --- Binary64 value domain ---------------------------------------------------
//
// The lanes take any length (masked tails; a vector with a zero, inf,
// NaN, flush or saturation takes an in-register rare-lane branch, never
// the scalar core). Hosts without them run the scalar core, whose
// std::fma is a libm call — correct, slower.

namespace {

using fpcore::F64Fmt;

Fmt f64_fmt(const FpFormat& format) {
  if (!fp_f64_exact(format)) {
    throw std::invalid_argument(
        "softfloat: binary64 domain needs we <= 9 and wf <= 50");
  }
  return Fmt(format);
}

u64 neg_mask(bool negate) { return negate ? fpcore::kF64Sign : 0; }

double flip(double v, u64 neg) {
  return std::bit_cast<double>(std::bit_cast<u64>(v) ^ neg);
}

}  // namespace

bool fp_f64_exact(const FpFormat& format) {
  return fpcore::f64_arith_fits(format.we, format.wf);
}

bool fp_f64_lanes(const FpFormat& format) {
  return VCGRA_SIMD_X86 && fp_f64_exact(format) && simd::available();
}

double fp_f64_round(const FpFormat& format, double value) {
  return fpcore::f64_round(F64Fmt(f64_fmt(format)), value);
}

std::uint64_t fp_f64_pack(const FpFormat& format, double value) {
  const Fmt m = f64_fmt(format);
  return fpcore::f64_pack(m, F64Fmt(m), value);
}

double fp_f64_mul(const FpFormat& format, double a, double b) {
  return fpcore::f64_mul(F64Fmt(f64_fmt(format)), a, b);
}

double fp_f64_add(const FpFormat& format, double a, double b) {
  return fpcore::f64_add(F64Fmt(f64_fmt(format)), a, b);
}

void fp_f64_round_n(const FpFormat& format, const double* in, double* out,
                    std::size_t n) {
  const Fmt m = f64_fmt(format);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_round_n(m, in, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::f64_round(k, in[i]);
}

void fp_f64_pack_n(const FpFormat& format, const double* in,
                   std::uint64_t* out, std::size_t n) {
  const Fmt m = f64_fmt(format);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_pack_n(m, in, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::f64_pack(m, k, in[i]);
}

void fp_f64_mul_coeff_n(const FpFormat& format, const double* a, double coeff,
                        double* out, std::size_t n) {
  const Fmt m = f64_fmt(format);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_mul_coeff_n(m, a, coeff, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::f64_mul(k, a[i], coeff);
}

void fp_f64_mul_n(const FpFormat& format, const double* a, const double* b,
                  double* out, std::size_t n) {
  const Fmt m = f64_fmt(format);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_mul_n(m, a, b, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) out[i] = fpcore::f64_mul(k, a[i], b[i]);
}

void fp_f64_add_n(const FpFormat& format, const double* a, const double* b,
                  bool negate_b, double* out, std::size_t n) {
  const Fmt m = f64_fmt(format);
  const u64 neg = neg_mask(negate_b);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_add_n(m, a, b, neg, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fpcore::f64_add(k, a[i], flip(b[i], neg));
  }
}

void fp_f64_axpy_n(const FpFormat& format, const double* a, const double* x,
                   double coeff, bool negate_product, double* out,
                   std::size_t n) {
  const Fmt m = f64_fmt(format);
  const u64 neg = neg_mask(negate_product);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_axpy_n(m, a, x, coeff, neg, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fpcore::f64_add(k, a[i], flip(fpcore::f64_mul(k, x[i], coeff), neg));
  }
}

void fp_f64_xpay_n(const FpFormat& format, const double* x, double coeff,
                   const double* b, bool negate_b, double* out, std::size_t n) {
  const Fmt m = f64_fmt(format);
  const u64 neg = neg_mask(negate_b);
#if VCGRA_SIMD_X86
  if (simd::available()) {
    simd::f64_xpay_n(m, x, coeff, b, neg, out, n);
    return;
  }
#endif
  const F64Fmt k(m);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = fpcore::f64_add(k, fpcore::f64_mul(k, x[i], coeff), flip(b[i], neg));
  }
}

std::size_t fp_f64_mac_n(const FpFormat& format, const double* x, double coeff,
                         std::uint32_t count, double* out, std::size_t n,
                         double* acc_io, std::uint32_t* filled) {
  // Each step's add consumes the previous step's rounded result, so one
  // window is a serial chain; consecutive windows are independent. The
  // head (an in-flight window) and the tail (a partial window carried
  // out through acc/filled) step serially; whole windows in between run
  // kMacGroup at a time, one SIMD axpy pass per step over the group's
  // accumulators, so every window keeps its exact rounding sequence.
  // Every step, the first included, is an axpy into the window's
  // accumulator: add(+0, p) is exact under IEEE rules.
  const Fmt m = f64_fmt(format);
  const F64Fmt k(m);
  double acc = *acc_io;
  std::uint32_t fill = *filled;
  std::size_t emitted = 0;
  std::size_t i = 0;
  const auto step = [&] {
    acc = fpcore::f64_add(k, acc, fpcore::f64_mul(k, x[i++], coeff));
    if (++fill == count) {
      out[emitted++] = acc;
      acc = 0.0;
      fill = 0;
    }
  };
  while (fill != 0 && i < n) step();

#if VCGRA_SIMD_X86
  const std::size_t windows = count == 0 ? 0 : (n - i) / count;
  if (windows >= kMacMinGroup && simd::available()) {
    alignas(64) double col[kMacGroup];
    alignas(64) double group[kMacGroup];
    for (std::size_t done = 0; done < windows;) {
      const std::size_t g = std::min(kMacGroup, windows - done);
      const double* base = x + i;
      std::fill(group, group + g, 0.0);
      for (std::uint32_t s = 0; s < count; ++s) {
        for (std::size_t w = 0; w < g; ++w) col[w] = base[w * count + s];
        simd::f64_axpy_n(m, group, col, coeff, 0, group, g);
      }
      std::copy(group, group + g, out + emitted);
      emitted += g;
      done += g;
      i += g * count;
    }
  }
#endif

  while (i < n) step();
  *acc_io = acc;
  *filled = fill;
  return emitted;
}

}  // namespace vcgra::softfloat
