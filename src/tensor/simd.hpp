#pragma once

// SIMD dispatch for the compute kernels: compiled in at build time,
// validated at run time.
//
// The `DUBHE_SIMD` CMake option (ON by default) defines DUBHE_SIMD_ENABLED
// and, when the compiler accepts them, adds -mavx2 -mfma to every library
// source, not only to this kernel. The compiler then emits AVX2/VEX code
// wherever it sees fit (event loops, keygen, ...), so a default build needs
// an AVX2 host whatever the dispatch below picks. All vector code lives
// behind the DUBHE_SIMD_AVX2 gate below, so a DUBHE_SIMD=OFF build compiles
// only the portable scalar kernels and has no AVX instructions: it is the
// only build that runs on a pre-AVX2 x86 host.
//
// Which compiled-in kernel runs is decided through core::cpu at first use:
// simd_available() additionally requires AVX2+FMA under the current
// DUBHE_CPU policy, so DUBHE_CPU=portable exercises the scalar tier inside
// an AVX2 build.

#if defined(DUBHE_SIMD_ENABLED) && defined(__AVX2__) && defined(__FMA__)
#define DUBHE_SIMD_AVX2 1
#else
#define DUBHE_SIMD_AVX2 0
#endif

namespace dubhe::tensor {

/// True when the AVX2+FMA kernels were compiled into this binary AND the
/// host offers (and DUBHE_CPU allows) AVX2+FMA — see core/cpu.hpp.
bool simd_available();

/// Runtime kill-switch over the compiled-in kernels, for benches and parity
/// tests that compare the two backends in one process: set_simd_enabled(false)
/// forces the scalar microkernel even when AVX2 is built. Enabling is a no-op
/// when simd_available() is false. Returns the previous setting. Not
/// synchronized with in-flight kernels — flip it only between operations.
bool set_simd_enabled(bool on);
bool simd_enabled();

/// "avx2" or "scalar" — the backend the next kernel call will use.
const char* simd_backend_name();

}  // namespace dubhe::tensor
