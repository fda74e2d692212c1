// AVX-512 kernel table: the same shared kernel body as the AVX2/SSE2/NEON
// TU (math/simd_kernels_body.inc), compiled with -mavx512f -mavx512dq so
// math/simd.hpp picks the 8-lane AVX-512 backend. Its vmuladd is the
// same exact mul-then-add as every other backend's (and -ffp-contract=off
// keeps the compiler from fusing one), so the table honours the
// bit-identity contract of math/simd_kernels.hpp and active_ops()
// prefers it whenever the CPU has the ISA.
//
// When the toolchain lacks the flags (or the build disabled SIMD) the
// table collapses to nullptr and the dispatcher never offers the tier;
// a host without the ISA is rejected at run time via cpu_features. Like
// the AVX2 TU, this one exposes only constant-initialized data, so
// linking it is always safe.
#include "math/simd_kernels.hpp"

#if !defined(VERITAS_SIMD_DISABLED) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "math/simd.hpp"

static_assert(veritas::math::simd::kLanes == 8,
              "the AVX-512 TU must select the 8-lane backend");

namespace veritas::math::simd_kernels {
namespace {
#include "math/simd_kernels_body.inc"
}  // namespace

namespace detail {
const KernelOps* const compiled_avx512_table = &kVectorOps;
}  // namespace detail

}  // namespace veritas::math::simd_kernels

#else  // !AVX-512 toolchain or VERITAS_SIMD_DISABLED

namespace veritas::math::simd_kernels::detail {
const KernelOps* const compiled_avx512_table = nullptr;
}  // namespace veritas::math::simd_kernels::detail

#endif
