// Internal dispatch surface of the SIMD batch kernels (batch_simd.cpp):
// AVX-512 on x86-64, NEON on AArch64, portable stubs elsewhere.
//
// Each function is semantically identical to the scalar loop it replaces
// in batch.cpp: 8 elements per 512-bit lane group (2 per NEON vector).
// The bits-domain kernels patch special-class lanes (NaN/inf/zero
// operands, denormal doubles) through the shared scalar core; the
// binary64-domain kernels below handle theirs in registers. Either way
// every result stays bit-exact with fpformat.cpp. available() is a cached CPUID probe on x86 and
// constant-true on AArch64 (AdvSIMD is mandatory there); callers fall
// back to the portable loops when it reports false (or for formats the
// lanes cannot carry, which the implementations check themselves).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fp_core.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VCGRA_SIMD_X86 1
#define VCGRA_SIMD_NEON 0
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define VCGRA_SIMD_X86 0
#define VCGRA_SIMD_NEON 1
#else
#define VCGRA_SIMD_X86 0
#define VCGRA_SIMD_NEON 0
#endif

namespace vcgra::softfloat::simd {

/// True when the host executes AVX-512 F/CD/DQ (cached).
bool available();

void mul_n(const fpcore::Fmt& m, const std::uint64_t* a, const std::uint64_t* b,
           std::uint64_t* out, std::size_t n);
void mul_coeff_n(const fpcore::Fmt& m, const std::uint64_t* a,
                 std::uint64_t coeff, std::uint64_t* out, std::size_t n);
void add_xor_n(const fpcore::Fmt& m, const std::uint64_t* a,
               const std::uint64_t* b, std::uint64_t b_xor, std::uint64_t* out,
               std::size_t n);
void axpy_n(const fpcore::Fmt& m, const std::uint64_t* a,
            const std::uint64_t* x, std::uint64_t coeff, std::uint64_t mul_xor,
            std::uint64_t* out, std::size_t n);
void xpay_n(const fpcore::Fmt& m, const std::uint64_t* x, std::uint64_t coeff,
            const std::uint64_t* b, std::uint64_t b_xor, std::uint64_t* out,
            std::size_t n);
void from_double_n(const fpcore::Fmt& m, const double* in, std::uint64_t* out,
                   std::size_t n);
void to_double_n(const fpcore::Fmt& m, const std::uint64_t* in, double* out,
                 std::size_t n);

// Binary64 value domain (fp_core.hpp's F64 section; batch.hpp's fp_f64_*).
// IEEE special-value rules already match the format's, so no lane goes
// to the scalar core. Each rounding takes one range compare per vector;
// only a vector holding a rare lane (zero, flush, saturation, inf, NaN,
// or a masked-off tail lane) runs the class blends, in registers. `neg`
// is 0 or the double sign bit, XORed into the operand it names.

/// True when the host executes the binary64-domain lanes (AVX-512 only:
/// elsewhere batch.cpp runs the scalar core instead).
bool f64_available();

// Defined on x86-64 only; callers reach them under VCGRA_SIMD_X86.
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
