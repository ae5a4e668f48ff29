// Internal dispatch surface of the AVX-512 batch kernels (batch_simd.cpp).
//
// Each function is semantically identical to the scalar loop it replaces
// in batch.cpp, 8 elements per 512-bit lane group. The binary64-domain
// kernels handle every special lane in registers; the decoder sends a
// vector holding a zero, inf, NaN or out-of-format bits through the
// scalar core. Either way every result stays bit-exact with fpformat.cpp.
// available() is a cached CPUID probe; callers fall back to the portable
// loops when it reports false, off x86-64, and for formats the lanes do
// not carry (batch.cpp checks those).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fp_core.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VCGRA_SIMD_X86 1
#else
#define VCGRA_SIMD_X86 0
#endif

namespace vcgra::softfloat::simd {

/// True when the host executes AVX-512 F/CD/DQ (cached).
bool available();

// Defined on x86-64 only; callers reach them under VCGRA_SIMD_X86.

// Conversions, for formats with fpcore::f64_round_fits. to_double_n
// returns whether every encoding was canonical (fpcore::canonical_one).
void from_double_n(const fpcore::Fmt& m, const double* in, std::uint64_t* out,
                   std::size_t n);
bool to_double_n(const fpcore::Fmt& m, const std::uint64_t* in, double* out,
                 std::size_t n);

// Binary64 value domain (fp_core.hpp's F64 section; batch.hpp's fp_f64_*).
// IEEE special-value rules already match the format's, so no lane goes
// to the scalar core. Each rounding takes one range compare per vector;
// only a vector holding a rare lane (zero, flush, saturation, inf, NaN,
// or a masked-off tail lane) runs the class blends, in registers. `neg`
// is 0 or the double sign bit, XORed into the operand it names.
void f64_round_n(const fpcore::Fmt& m, const double* in, double* out,
                 std::size_t n);
void f64_pack_n(const fpcore::Fmt& m, const double* in, std::uint64_t* out,
                std::size_t n);
void f64_mul_coeff_n(const fpcore::Fmt& m, const double* a, double coeff,
                     double* out, std::size_t n);
void f64_mul_n(const fpcore::Fmt& m, const double* a, const double* b,
               double* out, std::size_t n);
void f64_add_n(const fpcore::Fmt& m, const double* a, const double* b,
               std::uint64_t neg, double* out, std::size_t n);
void f64_axpy_n(const fpcore::Fmt& m, const double* a, const double* x,
                double coeff, std::uint64_t neg, double* out, std::size_t n);
void f64_xpay_n(const fpcore::Fmt& m, const double* x, double coeff,
                const double* b, std::uint64_t neg, double* out, std::size_t n);

}  // namespace vcgra::softfloat::simd
