// Batch FloPoCo arithmetic over raw bit buffers.
//
// The scalar FpValue operations in fpformat.hpp re-derive the format's
// field masks, re-class the operands and shuffle 16-byte (format, bits)
// pairs on every call — fine for coefficients, wasteful inside a
// million-element stream loop. These kernels hoist every format-derived
// constant out of the element loop and run over contiguous
// std::uint64_t encodings, the storage the execution-plan datapath
// (vcgra/exec_plan.hpp) streams through its arena.
//
// Contract: every batch kernel is bit-identical, element for element, to
// its scalar counterpart (fp_mul / fp_add / fp_mac /
// FpValue::from_double / FpValue::to_double) for every format — asserted
// by the conversion and batch-kernel fuzz suites in test_exec_plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vcgra/softfloat/fpformat.hpp"

namespace vcgra::softfloat {

/// Encode a double into the format's bit layout. Bit-identical to
/// FpValue::from_double (RNE, overflow -> inf, underflow -> 0) but pure
/// integer bit manipulation of the IEEE-754 representation — no
/// frexp/nearbyint per element.
std::uint64_t fp_encode_double(const FpFormat& format, double value);

/// Decode format bits into a double. Bit-identical to FpValue::to_double.
double fp_decode_double(const FpFormat& format, std::uint64_t bits);

/// out[i] = a[i] * b[i]. `out` may alias `a` or `b`.
void fp_mul_n(const FpFormat& format, const std::uint64_t* a,
              const std::uint64_t* b, std::uint64_t* out, std::size_t n);

/// out[i] = a[i] * coeff — the mul-by-coefficient PE datapath.
void fp_mul_coeff_n(const FpFormat& format, const std::uint64_t* a,
                    std::uint64_t coeff, std::uint64_t* out, std::size_t n);

/// out[i] = a[i] + (b[i] ^ b_xor). `b_xor` = 0 is a plain add; the
/// format's sign-bit mask turns it into the PE's subtract (sign-flip
/// then add, exactly like the cycle-level simulator and the gate-level
/// adder). `out` may alias `a` or `b`.
void fp_add_xor_n(const FpFormat& format, const std::uint64_t* a,
                  const std::uint64_t* b, std::uint64_t b_xor,
                  std::uint64_t* out, std::size_t n);

inline void fp_add_n(const FpFormat& format, const std::uint64_t* a,
                     const std::uint64_t* b, std::uint64_t* out,
                     std::size_t n) {
  fp_add_xor_n(format, a, b, 0, out, n);
}

/// Fused coefficient-multiply feeding an add in one pass:
/// out[i] = fp_add(a[i], fp_mul(x[i], coeff) ^ mul_xor). The two
/// rounding steps stay separate (bit-identical to running the mul and
/// the add back to back); fusion only removes the intermediate stream's
/// store/load round trip. `mul_xor` = sign mask models a subtract whose
/// rhs is the product.
void fp_axpy_n(const FpFormat& format, const std::uint64_t* a,
               const std::uint64_t* x, std::uint64_t coeff,
               std::uint64_t mul_xor, std::uint64_t* out, std::size_t n);

/// Mirror fusion with the product on the left:
/// out[i] = fp_add(fp_mul(x[i], coeff), b[i] ^ b_xor).
void fp_xpay_n(const FpFormat& format, const std::uint64_t* x,
               std::uint64_t coeff, const std::uint64_t* b,
               std::uint64_t b_xor, std::uint64_t* out, std::size_t n);

/// Decimating MAC over a block: runs acc = fp_mac(acc, x[i], coeff) and
/// emits the accumulator to `out` every `count` consumed samples (then
/// restarts from +0), exactly like the hardware PE's iteration counter.
/// `acc_bits`/`filled` carry the in-flight accumulation across blocks so
/// callers can stream a long input through cache-sized chunks; both must
/// start at 0 for a fresh stream. Returns the number of emitted outputs,
/// the same for every way of splitting the stream across calls.
std::size_t fp_mac_n(const FpFormat& format, const std::uint64_t* x,
                     std::uint64_t coeff, std::uint32_t count,
                     std::uint64_t* out, std::size_t n,
                     std::uint64_t* acc_bits, std::uint32_t* filled);

/// One batch pass double -> bits (fp_encode_double per element).
void fp_from_double_n(const FpFormat& format, const double* in,
                      std::uint64_t* out, std::size_t n);

/// One batch pass bits -> double (fp_decode_double per element). Returns
/// whether every encoding was canonical: a zero carrying only its sign,
/// an inf only its sign and class, a NaN exactly the format's NaN (sign
/// clear, no payload), and no bit set above the format's width. For
/// formats with fp_f64_exact that is fp_f64_pack(fp_decode_double(bits))
/// == bits, so a stream that decodes canonically can enter the binary64
/// domain below. `out` may overlay `in`.
bool fp_to_double_n(const FpFormat& format, const std::uint64_t* in,
                    double* out, std::size_t n);

/// Encodings as FpValues in one pass: the vector is built straight from
/// `in`, with no value-initialization pass before the fill.
std::vector<FpValue> fp_values_n(const FpFormat& format,
                                 const std::uint64_t* in, std::size_t n);

// ---- Binary64 value domain ---------------------------------------------------
//
// For fp(we <= 9, wf <= 50) a stream can live as doubles exactly equal
// to its format values, with no per-op encode or decode: each kernel
// below computes in binary64, rounds to odd at 53 bits and then to
// nearest-even at wf+1 bits with the format's flush to zero and
// saturation to inf. The AVX-512 lanes round to odd with embedded
// directed rounding (a product toward zero, inexact when its FMA
// residual is nonzero; a sum both down and up, inexact when they
// differ, truncated to the one nearer zero); the scalar reference
// recovers the exact error with TwoSum or the FMA residual instead.
// The lanes round a vector of normal results with one range compare;
// a vector holding a zero, a flush, a saturation, an inf or a NaN takes
// the flush/saturate/NaN blends for its rare lanes.
// That double rounding equals direct nearest-even
// rounding (Boldo & Melquiond, IEEE TC 57(4), 2008), so every kernel is
// bit-identical, after fp_f64_pack, to its bits-domain counterpart on
// the same values: fp_f64_round_n + fp_f64_pack_n is fp_from_double_n,
// and fp_f64_mul/add/axpy/xpay/mac follow fp_mul/fp_add/fp_mac. IEEE
// special-value rules reproduce the format's (x+0 = x, +0 + -0 = +0,
// cancellation gives +0, inf-inf and 0*inf give NaN); NaN payloads are
// not preserved, and fp_f64_pack maps every NaN to the canonical one.
//
// Inputs must be format-exact doubles (outputs of fp_f64_round or of
// another kernel here, or fp_decode_double of any encoding) — except for
// fp_f64_round itself, which takes any double. A raw encoding that is
// not canonical (see fp_to_double_n) decodes to its class's canonical
// value, so the bits kernels above can return it where these cannot: an
// inf with fraction bits passes through fp_add unchanged. The plan
// executor therefore decodes raw-bits streams with fp_to_double_n and
// runs a sweep here only when every encoding was canonical. Every call throws
// std::invalid_argument unless fp_f64_exact(format). `out` may alias an
// input, element for element; fp_f64_pack_n may run in place.

/// True when the binary64 domain reproduces the format exactly.
bool fp_f64_exact(const FpFormat& format);

/// True when fp_f64_exact(format) and the host has the binary64 SIMD
/// lanes: the plan executor's test for selecting the domain.
bool fp_f64_lanes(const FpFormat& format);

/// Any double to the nearest format value, as a double (RNE; overflow ->
/// signed inf, underflow -> signed 0; NaN stays NaN).
double fp_f64_round(const FpFormat& format, double value);
/// A format-exact double to its encoding (any NaN -> canonical NaN).
std::uint64_t fp_f64_pack(const FpFormat& format, double value);
/// fp_mul and fp_add on format-exact doubles.
double fp_f64_mul(const FpFormat& format, double a, double b);
double fp_f64_add(const FpFormat& format, double a, double b);

void fp_f64_round_n(const FpFormat& format, const double* in, double* out,
                    std::size_t n);
void fp_f64_pack_n(const FpFormat& format, const double* in,
                   std::uint64_t* out, std::size_t n);
/// out[i] = a[i] * coeff.
void fp_f64_mul_coeff_n(const FpFormat& format, const double* a, double coeff,
                        double* out, std::size_t n);
/// out[i] = a[i] * b[i].
void fp_f64_mul_n(const FpFormat& format, const double* a, const double* b,
                  double* out, std::size_t n);
/// out[i] = a[i] + b[i], or a[i] - b[i] when `negate_b` (sign flip, then
/// add — the PE's subtract).
void fp_f64_add_n(const FpFormat& format, const double* a, const double* b,
                  bool negate_b, double* out, std::size_t n);
/// out[i] = a[i] + (x[i] * coeff), the product negated when
/// `negate_product`; two roundings, like fp_axpy_n.
void fp_f64_axpy_n(const FpFormat& format, const double* a, const double* x,
                   double coeff, bool negate_product, double* out,
                   std::size_t n);
/// out[i] = (x[i] * coeff) + b[i], b negated when `negate_b`; like
/// fp_xpay_n.
void fp_f64_xpay_n(const FpFormat& format, const double* x, double coeff,
                   const double* b, bool negate_b, double* out, std::size_t n);
/// fp_mac_n on format-exact doubles, with the same carried state: `acc`
/// (+0.0 for a fresh stream) and `filled`, the same window grouping and
/// the same result for every way of splitting the stream across calls.
std::size_t fp_f64_mac_n(const FpFormat& format, const double* x, double coeff,
                         std::uint32_t count, double* out, std::size_t n,
                         double* acc, std::uint32_t* filled);

}  // namespace vcgra::softfloat
