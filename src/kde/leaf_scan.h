// Shared leaf kernel scan for the flat KD/ball trees.
//
// Both trees store their points permuted into node-contiguous order, so a
// leaf's exact kernel sum is the same computation regardless of backend:
// a cache-linear sweep over rows [begin, end) whose kernel values are
// added to one accumulator strictly in row order. Kept in one place so
// the grouping and tail logic cannot drift between the trees.
//
// Two scans compute that sum and the public entry point picks one per
// leaf. Both group rows identically — quads from `begin`, then at most one
// pair, then at most one single row — and differ only in how many quads
// they keep in flight:
//
// - The portable scan evaluates one quad at a time through two NegExpPair
//   calls.
// - The AVX2 scan takes 16 rows (four quads) per step. It computes their
//   scaled squared distances as vector lanes, one row per lane, runs the
//   four exp polynomials interleaved so their latency chains overlap, and
//   then adds the 16 results to the accumulator one at a time in index
//   order. The one to three quads left over run together the same way.
//
// Why the two cannot differ in a single bit: every lane performs the
// scalar scan's exact IEEE operations in the same order (u = 0, then
// u += ((x - q) * ib)^2 in dimension order, then u * -0.5, then NegExp's
// mul/add Horner; packed operations round exactly like scalar ones, and
// the target is avx2 only, so nothing is contracted into an FMA), every
// NegExp lane is bitwise identical to the scalar NegExp (negexp.h), and
// the accumulation order is the row order in both. tests/kde_flat_test.cc
// pins both scans to a scalar reference bit for bit.

#ifndef FAIRDRIFT_KDE_LEAF_SCAN_H_
#define FAIRDRIFT_KDE_LEAF_SCAN_H_

#include <cstddef>

#include "kde/negexp.h"
#include "linalg/matrix.h"

namespace fairdrift {

namespace leaf_scan_internal {

/// Adds the pair and single-row tail of rows [i, end) (fewer than four
/// rows) to `acc`, in row order; shared by both scans.
inline double AddLeafTail(const Matrix& points, size_t i, size_t end,
                          size_t dim, const double* query,
                          const double* inv_bandwidth, double acc) {
  if (i + 1 < end) {
    const double* row0 = points.RowPtr(i);
    const double* row1 = points.RowPtr(i + 1);
    double u0 = 0.0;
    double u1 = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      double d0 = (row0[j] - query[j]) * inv_bandwidth[j];
      double d1 = (row1[j] - query[j]) * inv_bandwidth[j];
      u0 += d0 * d0;
      u1 += d1 * d1;
    }
    double e0, e1;
    NegExpPair(-0.5 * u0, -0.5 * u1, &e0, &e1);
    acc += e0;
    acc += e1;
    i += 2;
  }
  if (i < end) {
    const double* row = points.RowPtr(i);
    double u2 = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      double d = (row[j] - query[j]) * inv_bandwidth[j];
      u2 += d * d;
    }
    acc += NegExp(-0.5 * u2);
  }
  return acc;
}

/// The scan for hosts without AVX2: one quad in flight.
inline double LeafKernelSumPortable(const Matrix& points, size_t begin,
                                    size_t end, size_t dim,
                                    const double* query,
                                    const double* inv_bandwidth) {
  double acc = 0.0;
  size_t i = begin;
  for (; i + 3 < end; i += 4) {
    const double* row0 = points.RowPtr(i);
    const double* row1 = points.RowPtr(i + 1);
    const double* row2 = points.RowPtr(i + 2);
    const double* row3 = points.RowPtr(i + 3);
    double u[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < dim; ++j) {
      double d0 = (row0[j] - query[j]) * inv_bandwidth[j];
      double d1 = (row1[j] - query[j]) * inv_bandwidth[j];
      double d2 = (row2[j] - query[j]) * inv_bandwidth[j];
      double d3 = (row3[j] - query[j]) * inv_bandwidth[j];
      u[0] += d0 * d0;
      u[1] += d1 * d1;
      u[2] += d2 * d2;
      u[3] += d3 * d3;
    }
    double e[4];
    NegExpPair(-0.5 * u[0], -0.5 * u[1], &e[0], &e[1]);
    NegExpPair(-0.5 * u[2], -0.5 * u[3], &e[2], &e[3]);
    acc += e[0];
    acc += e[1];
    acc += e[2];
    acc += e[3];
  }
  return AddLeafTail(points, i, end, dim, query, inv_bandwidth, acc);
}

#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
/// Kernel values of the 4 * kQuads consecutive rows starting at `rows`
/// (row stride `stride`, first `dim` columns) into e[0 .. 4 * kQuads), row
/// order; quad k's rows are the lanes of one register.
template <int kQuads>
__attribute__((target("avx2"))) inline void QuadKernelsAvx2(
    const double* rows, size_t stride, size_t dim, const double* query,
    const double* inv_bandwidth, double* e) {
  __m256d u[kQuads];
  for (int k = 0; k < kQuads; ++k) u[k] = _mm256_setzero_pd();
  size_t j = 0;
  // Two dimensions per step: rows 0/2 and 1/3 of a quad load as 128-bit
  // halves, and one unpack each yields dimension j and j + 1 with one row
  // per lane (lane order = row order).
  for (; j + 1 < dim; j += 2) {
    const __m256d q0 = _mm256_set1_pd(query[j]);
    const __m256d q1 = _mm256_set1_pd(query[j + 1]);
    const __m256d b0 = _mm256_set1_pd(inv_bandwidth[j]);
    const __m256d b1 = _mm256_set1_pd(inv_bandwidth[j + 1]);
    for (int k = 0; k < kQuads; ++k) {
      const double* x = rows + 4 * static_cast<size_t>(k) * stride + j;
      __m256d r02 = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(x)),
          _mm_loadu_pd(x + 2 * stride), 1);
      __m256d r13 = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(x + stride)),
          _mm_loadu_pd(x + 3 * stride), 1);
      __m256d d0 =
          _mm256_mul_pd(_mm256_sub_pd(_mm256_unpacklo_pd(r02, r13), q0), b0);
      __m256d d1 =
          _mm256_mul_pd(_mm256_sub_pd(_mm256_unpackhi_pd(r02, r13), q1), b1);
      u[k] = _mm256_add_pd(u[k], _mm256_mul_pd(d0, d0));
      u[k] = _mm256_add_pd(u[k], _mm256_mul_pd(d1, d1));
    }
  }
  if (j < dim) {
    const __m256d qj = _mm256_set1_pd(query[j]);
    const __m256d bj = _mm256_set1_pd(inv_bandwidth[j]);
    for (int k = 0; k < kQuads; ++k) {
      const double* x = rows + 4 * static_cast<size_t>(k) * stride + j;
      __m256d d = _mm256_mul_pd(
          _mm256_sub_pd(
              _mm256_set_pd(x[3 * stride], x[2 * stride], x[stride], x[0]),
              qj),
          bj);
      u[k] = _mm256_add_pd(u[k], _mm256_mul_pd(d, d));
    }
  }
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  for (int k = 0; k < kQuads; ++k) {
    _mm256_storeu_pd(e + 4 * k, negexp_internal::NegExp4Avx2(
                                    _mm256_mul_pd(u[k], neg_half)));
  }
}

/// The AVX2 scan: four quads in flight per step, then the leftover quads
/// together.
__attribute__((target("avx2"))) inline double LeafKernelSumAvx2(
    const Matrix& points, size_t begin, size_t end, size_t dim,
    const double* query, const double* inv_bandwidth) {
  const size_t stride = points.cols();
  double acc = 0.0;
  size_t i = begin;
  double e[16] = {};
  for (; i + 15 < end; i += 16) {
    QuadKernelsAvx2<4>(points.RowPtr(i), stride, dim, query, inv_bandwidth,
                       e);
    for (int k = 0; k < 16; ++k) acc += e[k];
  }
  const size_t quads = (end - i) / 4;
  if (quads == 3) {
    QuadKernelsAvx2<3>(points.RowPtr(i), stride, dim, query, inv_bandwidth,
                       e);
  } else if (quads == 2) {
    QuadKernelsAvx2<2>(points.RowPtr(i), stride, dim, query, inv_bandwidth,
                       e);
  } else if (quads == 1) {
    QuadKernelsAvx2<1>(points.RowPtr(i), stride, dim, query, inv_bandwidth,
                       e);
  }
  for (size_t k = 0; k < 4 * quads; ++k) acc += e[k];
  i += 4 * quads;
  return AddLeafTail(points, i, end, dim, query, inv_bandwidth, acc);
}
#endif

}  // namespace leaf_scan_internal

/// Sum over rows [begin, end) of `points` of
/// exp(-0.5 * ||(row - query) * inv_bandwidth||^2), over the first `dim`
/// columns of each row (dim <= points.cols()). The accumulation is
/// strictly sequential (results added in row order), so the sum is
/// deterministic, the same on every host, and bitwise-shared between the
/// iterative traversals and the recursive oracles that both call it.
inline double LeafPairwiseKernelSum(const Matrix& points, size_t begin,
                                    size_t end, size_t dim,
                                    const double* query,
                                    const double* inv_bandwidth) {
#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
  if (HasAvx2()) {
    return leaf_scan_internal::LeafKernelSumAvx2(points, begin, end, dim,
                                                 query, inv_bandwidth);
  }
#endif
  return leaf_scan_internal::LeafKernelSumPortable(points, begin, end, dim,
                                                   query, inv_bandwidth);
}

}  // namespace fairdrift

#endif  // FAIRDRIFT_KDE_LEAF_SCAN_H_
