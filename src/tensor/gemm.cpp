#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/cpu.hpp"
#include "core/parallel.hpp"
#include "tensor/simd.hpp"

#if DUBHE_SIMD_AVX2
#include <immintrin.h>
#endif

namespace dubhe::tensor {

namespace {

// Register tile of the AVX2 microkernel: 8 rows of C by one 8-float column
// vector (8 ymm accumulators fed by one B load and 8 A broadcasts per k
// step). The scalar backend uses the same packed operands but runs whole
// kMr x n_pad row panels with a long contiguous inner loop instead — the
// shape compilers reliably auto-vectorize.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 8;

std::atomic<std::size_t> g_compute_threads{0};

/// Packs op(B) row-major into [k][n_pad] with the padding columns zeroed,
/// normalizing the transpose. This is the scalar backend's layout: long
/// contiguous rows for the unit-stride inner loop.
void pack_b_rows(std::size_t n, std::size_t n_pad, std::size_t k, const float* b,
                 std::size_t ldb, bool tb, float* __restrict bp) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    float* dst = bp + kk * n_pad;
    if (!tb) {
      const float* src = b + kk * ldb;
      for (std::size_t j = 0; j < n; ++j) dst[j] = src[j];
    } else {
      for (std::size_t j = 0; j < n; ++j) dst[j] = b[j * ldb + kk];
    }
    for (std::size_t j = n; j < n_pad; ++j) dst[j] = 0.0f;
  }
}

#if DUBHE_SIMD_AVX2
/// Packs op(B) into kNr-column panels [panel][kk][kNr], zero-padded — the
/// AVX2 microkernel's layout, one contiguous vector load per k step.
void pack_b_panels(std::size_t n, std::size_t k, const float* b, std::size_t ldb,
                   bool tb, float* __restrict bp) {
  const std::size_t panels = (n + kNr - 1) / kNr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t vn = std::min(kNr, n - j0);
    float* dst = bp + p * k * kNr;
    for (std::size_t kk = 0; kk < k; ++kk, dst += kNr) {
      std::size_t jj = 0;
      if (!tb) {
        const float* src = b + kk * ldb + j0;
        for (; jj < vn; ++jj) dst[jj] = src[jj];
      } else {
        for (; jj < vn; ++jj) dst[jj] = b[(j0 + jj) * ldb + kk];
      }
      for (; jj < kNr; ++jj) dst[jj] = 0.0f;
    }
  }
}
#endif  // DUBHE_SIMD_AVX2

/// Packs one kMr-row panel of op(A): ap[kk][0..kMr), zero-padded rows.
void pack_a_panel(std::size_t i0, std::size_t vm, std::size_t k, const float* a,
                  std::size_t lda, bool ta, float* __restrict ap) {
  if (!ta) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      float* dst = ap + kk * kMr;
      std::size_t ii = 0;
      for (; ii < vm; ++ii) dst[ii] = a[(i0 + ii) * lda + kk];
      for (; ii < kMr; ++ii) dst[ii] = 0.0f;
    }
  } else {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* src = a + kk * lda + i0;
      float* dst = ap + kk * kMr;
      std::size_t ii = 0;
      for (; ii < vm; ++ii) dst[ii] = src[ii];
      for (; ii < kMr; ++ii) dst[ii] = 0.0f;
    }
  }
}

/// Scalar row-panel kernel: acc[kMr][n_pad] = panel(A) @ packed B, with a
/// contiguous unit-stride inner loop over n_pad that plain -O3 vectorizes.
/// Accumulation over kk is in increasing order for every element, so
/// results are deterministic for any thread count *within* this backend;
/// the AVX2 kernel's fused multiply-adds round differently, so the two
/// backends agree only to within FMA rounding (see the parity suite).
void kernel_scalar_panel(std::size_t k, std::size_t n_pad, const float* __restrict ap,
                         const float* __restrict bp, float* __restrict acc) {
  std::fill(acc, acc + kMr * n_pad, 0.0f);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* __restrict brow = bp + kk * n_pad;
    const float* __restrict arow = ap + kk * kMr;
    for (std::size_t ii = 0; ii < kMr; ++ii) {
      const float av = arow[ii];
      float* __restrict crow = acc + ii * n_pad;
      for (std::size_t jj = 0; jj < n_pad; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

#if DUBHE_SIMD_AVX2
/// AVX2+FMA microkernel: one kMr x kNr tile against one packed B panel, k
/// unrolled by 2 to keep the two FMA pipes fed across the 8-deep
/// dependency chains.
void kernel_avx2(std::size_t k, const float* ap, const float* bp, float* acc) {
  __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
  __m256 c4 = _mm256_setzero_ps(), c5 = _mm256_setzero_ps();
  __m256 c6 = _mm256_setzero_ps(), c7 = _mm256_setzero_ps();
  std::size_t kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const float* a0 = ap + kk * kMr;
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 0), b0, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 1), b0, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 2), b0, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 3), b0, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 4), b0, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 5), b0, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 6), b0, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 7), b0, c7);
    const float* a1 = a0 + kMr;
    const __m256 b1 = _mm256_loadu_ps(bp + (kk + 1) * kNr);
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 0), b1, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 1), b1, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 2), b1, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 3), b1, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 4), b1, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 5), b1, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 6), b1, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + 7), b1, c7);
  }
  for (; kk < k; ++kk) {
    const float* a0 = ap + kk * kMr;
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 0), b0, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 1), b0, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 2), b0, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 3), b0, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 4), b0, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 5), b0, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 6), b0, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + 7), b0, c7);
  }
  _mm256_storeu_ps(acc + 0 * kNr, c0);
  _mm256_storeu_ps(acc + 1 * kNr, c1);
  _mm256_storeu_ps(acc + 2 * kNr, c2);
  _mm256_storeu_ps(acc + 3 * kNr, c3);
  _mm256_storeu_ps(acc + 4 * kNr, c4);
  _mm256_storeu_ps(acc + 5 * kNr, c5);
  _mm256_storeu_ps(acc + 6 * kNr, c6);
  _mm256_storeu_ps(acc + 7 * kNr, c7);
}
#endif  // DUBHE_SIMD_AVX2

/// Writes the valid region of one accumulator block (row stride `astride`)
/// to C with the fused epilogue. Shared between backends, so scalar/SIMD
/// differ only in the accumulation itself (FMA rounding).
void store_block(const float* acc, std::size_t astride, float* c, std::size_t n,
                 std::size_t i0, std::size_t vm, std::size_t j0, std::size_t vn,
                 const float* bias, bool relu, float* relu_mask) {
  for (std::size_t ii = 0; ii < vm; ++ii) {
    float* crow = c + (i0 + ii) * n + j0;
    const float* arow = acc + ii * astride;
    for (std::size_t jj = 0; jj < vn; ++jj) {
      float v = arow[jj];
      if (bias != nullptr) v += bias[j0 + jj];
      if (relu) {
        const bool live = v > 0.0f;
        if (relu_mask != nullptr) {
          relu_mask[(i0 + ii) * n + j0 + jj] = live ? 1.0f : 0.0f;
        }
        v = live ? v : 0.0f;
      }
      crow[jj] = v;
    }
  }
}

}  // namespace

bool simd_enabled() {
#if DUBHE_SIMD_AVX2
  // Compiled in is necessary, not sufficient: the DUBHE_CPU policy (and
  // core::cpu::set_enabled) must also allow AVX2+FMA, so DUBHE_CPU=portable
  // keeps an AVX2 build on the scalar kernel. That does not make the binary
  // run on a pre-AVX2 host: the whole library is compiled -mavx2 -mfma (see
  // simd.hpp).
  constexpr std::uint32_t kNeed = core::cpu::kAvx2 | core::cpu::kFma;
  return (core::cpu::enabled() & kNeed) == kNeed;
#else
  return false;
#endif
}

const char* simd_backend_name() { return simd_enabled() ? "avx2" : "scalar"; }

std::size_t set_compute_threads(std::size_t threads) {
  return g_compute_threads.exchange(threads);
}

std::size_t compute_threads() { return g_compute_threads.load(); }

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool ta, const float* b, std::size_t ldb, bool tb,
          float* c, const float* bias, bool relu, float* relu_mask) {
  if (m == 0 || n == 0) return;

  const std::size_t n_pad = ((n + kNr - 1) / kNr) * kNr;
  const std::size_t row_panels = (m + kMr - 1) / kMr;
  const bool use_simd = simd_enabled();

  // One packed copy of B — laid out for whichever kernel will run: column
  // panels for the AVX2 tiles, padded rows for the scalar panel loop —
  // shared (read-only) by every row-panel shard. The buffer is
  // thread_local so repeated calls from the same thread — every training
  // step — reuse it; it is only read while this frame blocks in
  // parallel_for, so worker shards referencing it is safe.
  thread_local std::vector<float> bp_buf;
  bp_buf.resize(std::max<std::size_t>(1, k * n_pad));
#if DUBHE_SIMD_AVX2
  if (use_simd) {
    pack_b_panels(n, k, b, ldb, tb, bp_buf.data());
  } else {
    pack_b_rows(n, n_pad, k, b, ldb, tb, bp_buf.data());
  }
#else
  pack_b_rows(n, n_pad, k, b, ldb, tb, bp_buf.data());
#endif
  const float* bp = bp_buf.data();
  (void)use_simd;

  const std::size_t threads = m * n * k >= kParallelFlopCutoff ? compute_threads() : 1;

  core::parallel_for(row_panels, threads, [&](std::size_t p) {
    thread_local std::vector<float> ap_buf;
    ap_buf.resize(std::max<std::size_t>(1, k * kMr));
    const std::size_t i0 = p * kMr;
    const std::size_t vm = std::min(kMr, m - i0);
    pack_a_panel(i0, vm, k, a, lda, ta, ap_buf.data());
#if DUBHE_SIMD_AVX2
    if (use_simd) {
      alignas(32) float acc[kMr * kNr];
      for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        kernel_avx2(k, ap_buf.data(), bp + (j0 / kNr) * k * kNr, acc);
        store_block(acc, kNr, c, n, i0, vm, j0, std::min(kNr, n - j0), bias, relu,
                    relu_mask);
      }
      return;
    }
#endif
    thread_local std::vector<float> acc_buf;
    acc_buf.resize(std::max<std::size_t>(1, kMr * n_pad));
    kernel_scalar_panel(k, n_pad, ap_buf.data(), bp, acc_buf.data());
    store_block(acc_buf.data(), n_pad, c, n, i0, vm, 0, n, bias, relu, relu_mask);
  });
}

}  // namespace dubhe::tensor
