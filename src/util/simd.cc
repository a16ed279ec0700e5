#include "util/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

// Compile-time side of the dispatch: AUTOCE_SIMD=scalar defines
// AUTOCE_SIMD_DISABLE and strips every intrinsic path; otherwise the
// paths the target ISA can express are compiled behind per-function
// target attributes (no global -mavx2, so the rest of the binary stays
// runnable on baseline hardware).
#if !defined(AUTOCE_SIMD_DISABLE) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define AUTOCE_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#define AUTOCE_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define AUTOCE_SIMD_HAVE_AVX2 0
#endif

#if !defined(AUTOCE_SIMD_DISABLE) && defined(__aarch64__)
#define AUTOCE_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#else
#define AUTOCE_SIMD_HAVE_NEON 0
#endif

namespace autoce::util::simd {

namespace {

// =====================================================================
// Scalar reference kernels. Every other level must reproduce these
// bit-for-bit; the lane assignment (element k -> lane k mod 4) and the
// combine tree (l0 + l2) + (l1 + l3) are the documented reference
// order. std::fma is correctly rounded, so "which instruction" can
// never matter — only the order encoded here.
// =====================================================================

namespace scalar {

/// C[i_begin..i_end) x [j_begin..j_end) region of C = op(A) * B with
/// op(A)[i][k] = a[i * a_i_stride + k * a_k_stride]. Shared by the
/// scalar kernels (whole matrix) and the vector kernels (edge tiles) —
/// per-output-element ascending-k fma chains either way.
inline void GemmBlock(const double* a, size_t a_i_stride, size_t a_k_stride,
                      const double* b, double* c, size_t k, size_t n,
                      size_t i_begin, size_t i_end, size_t j_begin,
                      size_t j_end) {
  for (size_t i = i_begin; i < i_end; ++i) {
    double* crow = c + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * a_i_stride + kk * a_k_stride];
      const double* brow = b + kk * n;
      for (size_t j = j_begin; j < j_end; ++j) {
        crow[j] = std::fma(aik, brow[j], crow[j]);
      }
    }
  }
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  GemmBlock(a, /*a_i_stride=*/k, /*a_k_stride=*/1, b, c, k, n, 0, m, 0, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  GemmBlock(a, /*a_i_stride=*/1, /*a_k_stride=*/m, b, c, k, n, 0, m, 0, n);
}

double Dot(const double* a, const double* b, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] = std::fma(a[i], b[i], lane[0]);
    lane[1] = std::fma(a[i + 1], b[i + 1], lane[1]);
    lane[2] = std::fma(a[i + 2], b[i + 2], lane[2]);
    lane[3] = std::fma(a[i + 3], b[i + 3], lane[3]);
  }
  for (; i < n; ++i) lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void MatMulNT(const double* a, const double* b, double* c, size_t m, size_t k,
              size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) c[i * n + j] = Dot(a + i * k, b + j * k, k);
  }
}

double SquaredL2(const double* a, const double* b, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i], d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2], d3 = a[i + 3] - b[i + 3];
    lane[0] = std::fma(d0, d0, lane[0]);
    lane[1] = std::fma(d1, d1, lane[1]);
    lane[2] = std::fma(d2, d2, lane[2]);
    lane[3] = std::fma(d3, d3, lane[3]);
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    lane[i & 3] = std::fma(d, d, lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void DotNorms(const double* a, const double* b, size_t n, double* dot,
              double* norm_a, double* norm_b) {
  double ld[4] = {}, la[4] = {}, lb[4] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t l = i & 3;
    ld[l] = std::fma(a[i], b[i], ld[l]);
    la[l] = std::fma(a[i], a[i], la[l]);
    lb[l] = std::fma(b[i], b[i], lb[l]);
  }
  *dot = (ld[0] + ld[2]) + (ld[1] + ld[3]);
  *norm_a = (la[0] + la[2]) + (la[1] + la[3]);
  *norm_b = (lb[0] + lb[2]) + (lb[1] + lb[3]);
}

double ReduceSum(const double* x, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) lane[i & 3] += x[i];
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double ReduceSqSum(const double* x, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i & 3] = std::fma(x[i], x[i], lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void AddInPlace(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void SubInPlace(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void MulInPlace(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void ScaleInPlace(double* y, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= s;
}

void ReluInPlace(double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0) x[i] = 0.0;
  }
}

void ReluBackward(const double* pre, double* grad, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (pre[i] <= 0.0) grad[i] = 0.0;
  }
}

}  // namespace scalar

// =====================================================================
// AVX2 + FMA kernels. Lane layout: one ymm register holds reduction
// lanes [l0 l1 l2 l3]; the combine tree is expressed as
// (low128 + high128) then lane0 + lane1 == (l0 + l2) + (l1 + l3).
// =====================================================================

#if AUTOCE_SIMD_HAVE_AVX2

namespace avx2 {

AUTOCE_TARGET_AVX2 inline double CombineTree(__m256d acc, const double* a,
                                             const double* b, size_t done,
                                             size_t n) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (size_t i = done; i < n; ++i) {
    lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

AUTOCE_TARGET_AVX2 double Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  return CombineTree(acc, a, b, i, n);
}

AUTOCE_TARGET_AVX2 double SquaredL2(const double* a, const double* b,
                                    size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    lane[i & 3] = std::fma(d, d, lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

AUTOCE_TARGET_AVX2 void DotNorms(const double* a, const double* b, size_t n,
                                 double* dot, double* norm_a,
                                 double* norm_b) {
  __m256d ad = _mm256_setzero_pd();
  __m256d aa = _mm256_setzero_pd();
  __m256d bb = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    ad = _mm256_fmadd_pd(va, vb, ad);
    aa = _mm256_fmadd_pd(va, va, aa);
    bb = _mm256_fmadd_pd(vb, vb, bb);
  }
  alignas(32) double ld[4], la[4], lb[4];
  _mm256_store_pd(ld, ad);
  _mm256_store_pd(la, aa);
  _mm256_store_pd(lb, bb);
  for (; i < n; ++i) {
    const size_t l = i & 3;
    ld[l] = std::fma(a[i], b[i], ld[l]);
    la[l] = std::fma(a[i], a[i], la[l]);
    lb[l] = std::fma(b[i], b[i], lb[l]);
  }
  *dot = (ld[0] + ld[2]) + (ld[1] + ld[3]);
  *norm_a = (la[0] + la[2]) + (la[1] + la[3]);
  *norm_b = (lb[0] + lb[2]) + (lb[1] + lb[3]);
}

AUTOCE_TARGET_AVX2 double ReduceSum(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) lane[i & 3] += x[i];
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

AUTOCE_TARGET_AVX2 double ReduceSqSum(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) lane[i & 3] = std::fma(x[i], x[i], lane[i & 3]);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

/// C = op(A) * B panels: 4 output rows x 8 output columns per register
/// tile (8 fma chains in flight); edge tiles fall through to the scalar
/// block, whose per-element chains are bit-identical by construction.
AUTOCE_TARGET_AVX2 void GemmPanels(const double* a, size_t a_i_stride,
                                   size_t a_k_stride, const double* b,
                                   double* c, size_t m, size_t k, size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  const size_t m4 = m - m % 4;
  const size_t n8 = n - n % 8;
  for (size_t i0 = 0; i0 < m4; i0 += 4) {
    for (size_t j0 = 0; j0 < n8; j0 += 8) {
      __m256d acc[4][2];
      for (int r = 0; r < 4; ++r) {
        acc[r][0] = _mm256_setzero_pd();
        acc[r][1] = _mm256_setzero_pd();
      }
      for (size_t kk = 0; kk < k; ++kk) {
        const double* brow = b + kk * n + j0;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        for (int r = 0; r < 4; ++r) {
          const __m256d ar = _mm256_set1_pd(
              a[(i0 + static_cast<size_t>(r)) * a_i_stride +
                kk * a_k_stride]);
          acc[r][0] = _mm256_fmadd_pd(ar, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_pd(ar, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < 4; ++r) {
        double* crow = c + (i0 + static_cast<size_t>(r)) * n + j0;
        _mm256_storeu_pd(crow, acc[r][0]);
        _mm256_storeu_pd(crow + 4, acc[r][1]);
      }
    }
    if (n8 < n) {
      scalar::GemmBlock(a, a_i_stride, a_k_stride, b, c, k, n, i0, i0 + 4, n8,
                        n);
    }
  }
  if (m4 < m) {
    scalar::GemmBlock(a, a_i_stride, a_k_stride, b, c, k, n, m4, m, 0, n);
  }
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  GemmPanels(a, /*a_i_stride=*/k, /*a_k_stride=*/1, b, c, m, k, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  GemmPanels(a, /*a_i_stride=*/1, /*a_k_stride=*/m, b, c, m, k, n);
}

AUTOCE_TARGET_AVX2 void MatMulNT(const double* a, const double* b, double* c,
                                 size_t m, size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) c[i * n + j] = Dot(a + i * k, b + j * k, k);
  }
}

AUTOCE_TARGET_AVX2 void Axpy(double alpha, const double* x, double* y,
                             size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

AUTOCE_TARGET_AVX2 void AddInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

AUTOCE_TARGET_AVX2 void SubInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

AUTOCE_TARGET_AVX2 void MulInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

AUTOCE_TARGET_AVX2 void ScaleInPlace(double* y, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

AUTOCE_TARGET_AVX2 void ReluInPlace(double* x, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    // Blend, not max: keeps -0.0 and NaN bit-identical to the scalar
    // `if (v < 0) v = 0` branch.
    const __m256d neg = _mm256_cmp_pd(v, zero, _CMP_LT_OQ);
    _mm256_storeu_pd(x + i, _mm256_blendv_pd(v, zero, neg));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0) x[i] = 0.0;
  }
}

AUTOCE_TARGET_AVX2 void ReluBackward(const double* pre, double* grad,
                                     size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_loadu_pd(pre + i);
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d off = _mm256_cmp_pd(p, zero, _CMP_LE_OQ);
    _mm256_storeu_pd(grad + i, _mm256_blendv_pd(g, zero, off));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0) grad[i] = 0.0;
  }
}

}  // namespace avx2

#endif  // AUTOCE_SIMD_HAVE_AVX2

// =====================================================================
// NEON kernels (aarch64). Two float64x2 registers express the four
// reduction lanes: accA = [l0 l1] takes elements k ≡ 0,1 (mod 4), accB
// = [l2 l3] takes k ≡ 2,3; vaddq(accA, accB) = [l0+l2, l1+l3] and the
// final lane0 + lane1 completes the same (l0+l2) + (l1+l3) tree.
// =====================================================================

#if AUTOCE_SIMD_HAVE_NEON

namespace neon {

inline double CombineTree(float64x2_t acc_a, float64x2_t acc_b) {
  const float64x2_t s = vaddq_f64(acc_a, acc_b);
  return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
}

double Dot(const double* a, const double* b, size_t n) {
  float64x2_t acc_a = vdupq_n_f64(0.0);
  float64x2_t acc_b = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc_a = vfmaq_f64(acc_a, vld1q_f64(a + i), vld1q_f64(b + i));
    acc_b = vfmaq_f64(acc_b, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  double lane[4] = {vgetq_lane_f64(acc_a, 0), vgetq_lane_f64(acc_a, 1),
                    vgetq_lane_f64(acc_b, 0), vgetq_lane_f64(acc_b, 1)};
  for (; i < n; ++i) lane[i & 3] = std::fma(a[i], b[i], lane[i & 3]);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double SquaredL2(const double* a, const double* b, size_t n) {
  float64x2_t acc_a = vdupq_n_f64(0.0);
  float64x2_t acc_b = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t d1 =
        vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc_a = vfmaq_f64(acc_a, d0, d0);
    acc_b = vfmaq_f64(acc_b, d1, d1);
  }
  double lane[4] = {vgetq_lane_f64(acc_a, 0), vgetq_lane_f64(acc_a, 1),
                    vgetq_lane_f64(acc_b, 0), vgetq_lane_f64(acc_b, 1)};
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    lane[i & 3] = std::fma(d, d, lane[i & 3]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void DotNorms(const double* a, const double* b, size_t n, double* dot,
              double* norm_a, double* norm_b) {
  float64x2_t da = vdupq_n_f64(0.0), db = vdupq_n_f64(0.0);
  float64x2_t aa = vdupq_n_f64(0.0), ab = vdupq_n_f64(0.0);
  float64x2_t ba = vdupq_n_f64(0.0), bb = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t va0 = vld1q_f64(a + i), va1 = vld1q_f64(a + i + 2);
    const float64x2_t vb0 = vld1q_f64(b + i), vb1 = vld1q_f64(b + i + 2);
    da = vfmaq_f64(da, va0, vb0);
    db = vfmaq_f64(db, va1, vb1);
    aa = vfmaq_f64(aa, va0, va0);
    ab = vfmaq_f64(ab, va1, va1);
    ba = vfmaq_f64(ba, vb0, vb0);
    bb = vfmaq_f64(bb, vb1, vb1);
  }
  double ld[4] = {vgetq_lane_f64(da, 0), vgetq_lane_f64(da, 1),
                  vgetq_lane_f64(db, 0), vgetq_lane_f64(db, 1)};
  double la[4] = {vgetq_lane_f64(aa, 0), vgetq_lane_f64(aa, 1),
                  vgetq_lane_f64(ab, 0), vgetq_lane_f64(ab, 1)};
  double lb[4] = {vgetq_lane_f64(ba, 0), vgetq_lane_f64(ba, 1),
                  vgetq_lane_f64(bb, 0), vgetq_lane_f64(bb, 1)};
  for (; i < n; ++i) {
    const size_t l = i & 3;
    ld[l] = std::fma(a[i], b[i], ld[l]);
    la[l] = std::fma(a[i], a[i], la[l]);
    lb[l] = std::fma(b[i], b[i], lb[l]);
  }
  *dot = (ld[0] + ld[2]) + (ld[1] + ld[3]);
  *norm_a = (la[0] + la[2]) + (la[1] + la[3]);
  *norm_b = (lb[0] + lb[2]) + (lb[1] + lb[3]);
}

double ReduceSum(const double* x, size_t n) {
  float64x2_t acc_a = vdupq_n_f64(0.0);
  float64x2_t acc_b = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc_a = vaddq_f64(acc_a, vld1q_f64(x + i));
    acc_b = vaddq_f64(acc_b, vld1q_f64(x + i + 2));
  }
  double lane[4] = {vgetq_lane_f64(acc_a, 0), vgetq_lane_f64(acc_a, 1),
                    vgetq_lane_f64(acc_b, 0), vgetq_lane_f64(acc_b, 1)};
  for (; i < n; ++i) lane[i & 3] += x[i];
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double ReduceSqSum(const double* x, size_t n) {
  float64x2_t acc_a = vdupq_n_f64(0.0);
  float64x2_t acc_b = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t v0 = vld1q_f64(x + i);
    const float64x2_t v1 = vld1q_f64(x + i + 2);
    acc_a = vfmaq_f64(acc_a, v0, v0);
    acc_b = vfmaq_f64(acc_b, v1, v1);
  }
  double lane[4] = {vgetq_lane_f64(acc_a, 0), vgetq_lane_f64(acc_a, 1),
                    vgetq_lane_f64(acc_b, 0), vgetq_lane_f64(acc_b, 1)};
  for (; i < n; ++i) lane[i & 3] = std::fma(x[i], x[i], lane[i & 3]);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

/// 4 rows x 4 columns register tiles (4 chains x 2 vectors per row);
/// edges fall through to the scalar block, bit-identical as on AVX2.
void GemmPanels(const double* a, size_t a_i_stride, size_t a_k_stride,
                const double* b, double* c, size_t m, size_t k, size_t n) {
  std::memset(c, 0, m * n * sizeof(double));
  const size_t m4 = m - m % 4;
  const size_t n4 = n - n % 4;
  for (size_t i0 = 0; i0 < m4; i0 += 4) {
    for (size_t j0 = 0; j0 < n4; j0 += 4) {
      float64x2_t acc[4][2];
      for (int r = 0; r < 4; ++r) {
        acc[r][0] = vdupq_n_f64(0.0);
        acc[r][1] = vdupq_n_f64(0.0);
      }
      for (size_t kk = 0; kk < k; ++kk) {
        const double* brow = b + kk * n + j0;
        const float64x2_t b0 = vld1q_f64(brow);
        const float64x2_t b1 = vld1q_f64(brow + 2);
        for (int r = 0; r < 4; ++r) {
          const double ar = a[(i0 + static_cast<size_t>(r)) * a_i_stride +
                              kk * a_k_stride];
          acc[r][0] = vfmaq_n_f64(acc[r][0], b0, ar);
          acc[r][1] = vfmaq_n_f64(acc[r][1], b1, ar);
        }
      }
      for (int r = 0; r < 4; ++r) {
        double* crow = c + (i0 + static_cast<size_t>(r)) * n + j0;
        vst1q_f64(crow, acc[r][0]);
        vst1q_f64(crow + 2, acc[r][1]);
      }
    }
    if (n4 < n) {
      scalar::GemmBlock(a, a_i_stride, a_k_stride, b, c, k, n, i0, i0 + 4, n4,
                        n);
    }
  }
  if (m4 < m) {
    scalar::GemmBlock(a, a_i_stride, a_k_stride, b, c, k, n, m4, m, 0, n);
  }
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  GemmPanels(a, k, 1, b, c, m, k, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  GemmPanels(a, 1, m, b, c, m, k, n);
}

void MatMulNT(const double* a, const double* b, double* c, size_t m, size_t k,
              size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) c[i * n + j] = Dot(a + i * k, b + j * k, k);
  }
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vfmaq_n_f64(vld1q_f64(y + i), vld1q_f64(x + i), alpha));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void AddInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vsubq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void MulInPlace(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vmulq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ScaleInPlace(double* y, double s, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vmulq_n_f64(vld1q_f64(y + i), s));
  }
  for (; i < n; ++i) y[i] *= s;
}

void ReluInPlace(double* x, size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(x + i);
    const uint64x2_t neg = vcltq_f64(v, zero);  // false for NaN, -0.0
    vst1q_f64(x + i, vbslq_f64(neg, zero, v));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0) x[i] = 0.0;
  }
}

void ReluBackward(const double* pre, double* grad, size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p = vld1q_f64(pre + i);
    const float64x2_t g = vld1q_f64(grad + i);
    const uint64x2_t off = vcleq_f64(p, zero);  // false for NaN
    vst1q_f64(grad + i, vbslq_f64(off, zero, g));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0) grad[i] = 0.0;
  }
}

}  // namespace neon

#endif  // AUTOCE_SIMD_HAVE_NEON

// =====================================================================
// Dispatch plumbing.
// =====================================================================

struct Kernels {
  Level level;
  void (*matmul)(const double*, const double*, double*, size_t, size_t,
                 size_t);
  void (*matmul_tn)(const double*, const double*, double*, size_t, size_t,
                    size_t);
  void (*matmul_nt)(const double*, const double*, double*, size_t, size_t,
                    size_t);
  double (*dot)(const double*, const double*, size_t);
  double (*squared_l2)(const double*, const double*, size_t);
  void (*dot_norms)(const double*, const double*, size_t, double*, double*,
                    double*);
  double (*reduce_sum)(const double*, size_t);
  double (*reduce_sq_sum)(const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*add_in_place)(double*, const double*, size_t);
  void (*sub_in_place)(double*, const double*, size_t);
  void (*mul_in_place)(double*, const double*, size_t);
  void (*scale_in_place)(double*, double, size_t);
  void (*relu_in_place)(double*, size_t);
  void (*relu_backward)(const double*, double*, size_t);
};

constexpr Kernels kScalarTable = {
    Level::kScalar,       scalar::MatMul,       scalar::MatMulTN,
    scalar::MatMulNT,     scalar::Dot,          scalar::SquaredL2,
    scalar::DotNorms,     scalar::ReduceSum,    scalar::ReduceSqSum,
    scalar::Axpy,         scalar::AddInPlace,   scalar::SubInPlace,
    scalar::MulInPlace,   scalar::ScaleInPlace, scalar::ReluInPlace,
    scalar::ReluBackward,
};

#if AUTOCE_SIMD_HAVE_AVX2
constexpr Kernels kAvx2Table = {
    Level::kAvx2,         avx2::MatMul,         avx2::MatMulTN,
    avx2::MatMulNT,       avx2::Dot,            avx2::SquaredL2,
    avx2::DotNorms,       avx2::ReduceSum,      avx2::ReduceSqSum,
    avx2::Axpy,           avx2::AddInPlace,     avx2::SubInPlace,
    avx2::MulInPlace,     avx2::ScaleInPlace,   avx2::ReluInPlace,
    avx2::ReluBackward,
};
#endif

#if AUTOCE_SIMD_HAVE_NEON
constexpr Kernels kNeonTable = {
    Level::kNeon,         neon::MatMul,         neon::MatMulTN,
    neon::MatMulNT,       neon::Dot,            neon::SquaredL2,
    neon::DotNorms,       neon::ReduceSum,      neon::ReduceSqSum,
    neon::Axpy,           neon::AddInPlace,     neon::SubInPlace,
    neon::MulInPlace,     neon::ScaleInPlace,   neon::ReluInPlace,
    neon::ReluBackward,
};
#endif

const Kernels* TableFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarTable;
    case Level::kAvx2:
#if AUTOCE_SIMD_HAVE_AVX2
      return &kAvx2Table;
#else
      return nullptr;
#endif
    case Level::kNeon:
#if AUTOCE_SIMD_HAVE_NEON
      return &kNeonTable;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Level BestAvailable() {
#if AUTOCE_SIMD_HAVE_AVX2
  if (LevelAvailable(Level::kAvx2)) return Level::kAvx2;
#endif
#if AUTOCE_SIMD_HAVE_NEON
  return Level::kNeon;
#endif
  return Level::kScalar;
}

Level BuildDefault() {
#ifdef AUTOCE_SIMD_BUILD_DEFAULT
  Level pinned;
  if (ParseLevel(AUTOCE_SIMD_BUILD_DEFAULT, &pinned)) {
    if (LevelAvailable(pinned)) return pinned;
    AUTOCE_LOG(Warning) << "build-pinned AUTOCE_SIMD=" AUTOCE_SIMD_BUILD_DEFAULT
                        << " unavailable on this machine; using "
                        << LevelName(BestAvailable());
  }
#endif
  return BestAvailable();
}

Level ResolveInitialLevel() {
  const char* env = std::getenv("AUTOCE_SIMD");
  if (env == nullptr || env[0] == '\0') return BuildDefault();
  std::string name(env);
  if (name == "auto") return BestAvailable();
  Level requested;
  if (!ParseLevel(name, &requested)) {
    AUTOCE_LOG(Warning) << "AUTOCE_SIMD=" << name
                        << " is not auto|scalar|avx2|neon; using "
                        << LevelName(BestAvailable());
    return BestAvailable();
  }
  if (!LevelAvailable(requested)) {
    AUTOCE_LOG(Warning) << "AUTOCE_SIMD=" << name
                        << " unavailable on this machine/binary; using "
                        << LevelName(BestAvailable());
    return BestAvailable();
  }
  return requested;
}

std::atomic<const Kernels*>& TableRef() {
  static std::atomic<const Kernels*> table{TableFor(ResolveInitialLevel())};
  return table;
}

inline const Kernels& Active() {
  return *TableRef().load(std::memory_order_relaxed);
}

}  // namespace

Level CompiledLevel() {
#if AUTOCE_SIMD_HAVE_AVX2
  return Level::kAvx2;
#elif AUTOCE_SIMD_HAVE_NEON
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

bool LevelAvailable(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if AUTOCE_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Level::kNeon:
#if AUTOCE_SIMD_HAVE_NEON
      return true;  // baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

Level ActiveLevel() { return Active().level; }

bool SetActiveLevel(Level level) {
  if (!LevelAvailable(level)) return false;
  const Kernels* table = TableFor(level);
  if (table == nullptr) return false;
  TableRef().store(table, std::memory_order_relaxed);
  return true;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

bool ParseLevel(const std::string& name, Level* out) {
  if (name == "scalar") {
    *out = Level::kScalar;
  } else if (name == "avx2") {
    *out = Level::kAvx2;
  } else if (name == "neon") {
    *out = Level::kNeon;
  } else {
    return false;
  }
  return true;
}

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  Active().matmul(a, b, c, m, k, n);
}

void MatMulTN(const double* a, const double* b, double* c, size_t k, size_t m,
              size_t n) {
  Active().matmul_tn(a, b, c, k, m, n);
}

void MatMulNT(const double* a, const double* b, double* c, size_t m, size_t k,
              size_t n) {
  Active().matmul_nt(a, b, c, m, k, n);
}

double Dot(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}

double SquaredL2(const double* a, const double* b, size_t n) {
  return Active().squared_l2(a, b, n);
}

void DotNorms(const double* a, const double* b, size_t n, double* dot,
              double* norm_a, double* norm_b) {
  Active().dot_norms(a, b, n, dot, norm_a, norm_b);
}

double ReduceSum(const double* x, size_t n) { return Active().reduce_sum(x, n); }

double ReduceSqSum(const double* x, size_t n) {
  return Active().reduce_sq_sum(x, n);
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  Active().axpy(alpha, x, y, n);
}

void AddInPlace(double* y, const double* x, size_t n) {
  Active().add_in_place(y, x, n);
}

void SubInPlace(double* y, const double* x, size_t n) {
  Active().sub_in_place(y, x, n);
}

void MulInPlace(double* y, const double* x, size_t n) {
  Active().mul_in_place(y, x, n);
}

void ScaleInPlace(double* y, double s, size_t n) {
  Active().scale_in_place(y, s, n);
}

void ReluInPlace(double* x, size_t n) { Active().relu_in_place(x, n); }

void ReluBackward(const double* pre, double* grad, size_t n) {
  Active().relu_backward(pre, grad, n);
}

}  // namespace autoce::util::simd
