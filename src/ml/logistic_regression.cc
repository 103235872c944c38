#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "linalg/cholesky.h"
#include "util/binary_io.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace fairdrift {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

// Each row's nonzero columns, so the IRLS passes cost what the one-hot
// encoded data holds rather than its width.
//
// Why skipping a zero keeps every bit. Every accumulator (a margin, a
// gradient slot, a Hessian slot) starts at the intercept or at +0.0, and
// neither is -0.0; a sum of two doubles is -0.0 only when both addends
// are, so no accumulator ever becomes -0.0. Adding a ±0 product to a
// value that is not -0.0 leaves it unchanged, and a zero column's product
// is ±0 whenever its other factor is finite. So the sparse loops skip
// exactly the adds that change nothing: a gradient or Hessian slot gets
// at most one add per row, so its order within the row is free, and the
// margin keeps ascending column order. Where finiteness is not given the
// dense loop runs instead: a row with a non-finite entry, every margin
// while a coefficient is non-finite, and a row whose residual, curvature
// or curvature-scaled entries are non-finite. A row with more than half
// its columns nonzero runs the dense loops too: indexing buys nothing
// there and costs the vectorized stride. The columns are kept as one bit
// each, d/8 bytes a row, so the map stays a small fraction of the matrix.
struct NonzeroColumns {
  size_t words = 0;            // 64-bit words per row
  std::vector<uint64_t> bits;  // row i: bits[i * words, (i + 1) * words)
  std::vector<uint8_t> dense;  // 1: the row runs the dense loops

  static NonzeroColumns Of(const Matrix& x) {
    const size_t n = x.rows();
    const size_t d = x.cols();
    NonzeroColumns nz;
    nz.words = (d + 63) / 64;
    nz.bits.assign(n * nz.words, 0);
    nz.dense.assign(n, 1);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.RowPtr(i);
      uint64_t* w = nz.bits.data() + i * nz.words;
      size_t count = 0;
      bool finite = true;
      for (size_t j = 0; j < d && 2 * count <= d && finite; ++j) {
        finite = std::isfinite(row[j]);
        if (row[j] == 0.0) continue;
        w[j / 64] |= uint64_t{1} << (j % 64);
        ++count;
      }
      // A dense row's bits are never read.
      nz.dense[i] = finite && 2 * count <= d ? 0 : 1;
    }
    return nz;
  }

  /// Row i's nonzero columns, ascending, into cols and their values into
  /// vals (d slots each); returns how many.
  size_t Gather(size_t i, const double* row, size_t* cols,
                double* vals) const {
    size_t m = 0;
    const uint64_t* w = bits.data() + i * words;
    for (size_t k = 0; k < words; ++k) {
      for (uint64_t b = w[k]; b != 0; b &= b - 1) {
        const size_t j = 64 * k + static_cast<size_t>(__builtin_ctzll(b));
        cols[m] = j;
        vals[m++] = row[j];
      }
    }
    return m;
  }
};

}  // namespace

Status LogisticRegression::Fit(const Matrix& x, const std::vector<int>& y,
                               const std::vector<double>& w) {
  Result<std::vector<double>> wr = CheckTrainingInputs(x, y, w);
  if (!wr.ok()) return wr.status();
  const std::vector<double> weights = std::move(wr).value();

  size_t n = x.rows();
  size_t d = x.cols();
  fitted_ = false;
  beta_.assign(d, 0.0);

  // Initialize the intercept at the weighted log-odds of the base rate.
  double wpos = 0.0;
  double wtot = 0.0;
  for (size_t i = 0; i < n; ++i) {
    wtot += weights[i];
    if (y[i] == 1) wpos += weights[i];
  }
  if (wtot <= 0.0) {
    return Status::InvalidArgument("LogisticRegression: zero total weight");
  }
  double rate = std::clamp(wpos / wtot, 1e-6, 1.0 - 1e-6);
  intercept_ = std::log(rate / (1.0 - rate));

  // Damped Newton (IRLS). The system has d+1 unknowns (beta, intercept).
  // The three row-wise passes per iteration (margins, gradient, Hessian)
  // run on the pool; the gradient/Hessian reductions accumulate into one
  // fixed slot per kReductionChunk block and reduce in block order, so the
  // fitted model is bitwise identical for every worker count. Each pass
  // visits only a row's nonzero columns (see NonzeroColumns) unless the
  // row is dense; both loops give the same bits.
  const NonzeroColumns nz = NonzeroColumns::Of(x);
  std::vector<double> p(n);  // probabilities
  const size_t dim1 = d + 1;
  // Bounded-slot blocks: each block carries a (d+1)^2 Hessian partial, so
  // the block count is capped (a function of n only — determinism holds).
  const size_t chunk_size = BoundedReductionChunk(n);
  const size_t chunks = ReductionChunks(n, chunk_size);
  const size_t hstride = dim1 * dim1;
  std::vector<double> grad_partial(chunks * dim1);
  std::vector<double> hess_partial(chunks * hstride);
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // A zero column's product is ±0 only while its coefficient is finite.
    const bool finite_beta = std::all_of(
        beta_.begin(), beta_.end(), [](double b) { return std::isfinite(b); });
    ParallelForChunks(
        0, n,
        [&](size_t, size_t cb, size_t ce) {
          std::vector<size_t> cols(d);
          std::vector<double> vals(d);
          for (size_t i = cb; i < ce; ++i) {
            const double* row = x.RowPtr(i);
            double acc = intercept_;
            if (finite_beta && !nz.dense[i]) {
              const size_t m = nz.Gather(i, row, cols.data(), vals.data());
              for (size_t k = 0; k < m; ++k) acc += beta_[cols[k]] * vals[k];
            } else {
              for (size_t j = 0; j < d; ++j) acc += beta_[j] * row[j];
            }
            p[i] = Sigmoid(acc);
          }
        },
        options_.pool);

    // Per-chunk partials of the gradient and the Hessian's upper triangle.
    ParallelForChunks(
        0, n,
        [&](size_t c, size_t cb, size_t ce) {
          double* g = grad_partial.data() + c * dim1;
          double* h = hess_partial.data() + c * hstride;
          std::fill(g, g + dim1, 0.0);
          std::fill(h, h + hstride, 0.0);
          std::vector<size_t> cols(d);  // a sparse row's nonzero columns
          std::vector<double> vals(d);   // and their entries
          for (size_t i = cb; i < ce; ++i) {
            const double* row = x.RowPtr(i);
            double r = weights[i] * (p[i] - static_cast<double>(y[i]));
            double s = weights[i] * p[i] * (1.0 - p[i]);
            size_t m = 0;
            bool sparse = !nz.dense[i] && std::isfinite(r) && std::isfinite(s);
            if (sparse) {
              m = nz.Gather(i, row, cols.data(), vals.data());
              double max_abs = 0.0;
              for (size_t k = 0; k < m; ++k) {
                max_abs = std::max(max_abs, std::fabs(vals[k]));
              }
              // Every s * row[a] is finite iff the largest one is (rounding
              // is monotone), so a zero column's Hessian product is ±0.
              sparse = s <= 0.0 || std::isfinite(s * max_abs);
            }
            if (!sparse) {
              for (size_t j = 0; j < d; ++j) g[j] += r * row[j];
              g[d] += r;
              if (s <= 0.0) continue;
              for (size_t a = 0; a < d; ++a) {
                double sa = s * row[a];
                double* ha = h + a * dim1;
                for (size_t b = a; b < d; ++b) ha[b] += sa * row[b];
                ha[d] += sa;
              }
              h[d * dim1 + d] += s;
              continue;
            }
            for (size_t k = 0; k < m; ++k) g[cols[k]] += r * vals[k];
            g[d] += r;
            if (s <= 0.0) continue;
            for (size_t ka = 0; ka < m; ++ka) {
              double sa = s * vals[ka];
              double* ha = h + cols[ka] * dim1;
              for (size_t kb = ka; kb < m; ++kb) ha[cols[kb]] += sa * vals[kb];
              ha[d] += sa;
            }
            h[d * dim1 + d] += s;
          }
        },
        options_.pool, chunk_size);

    // Gradient of the negative penalized log-likelihood (chunk order).
    std::vector<double> grad(dim1, 0.0);
    for (size_t c = 0; c < chunks; ++c) {
      const double* g = grad_partial.data() + c * dim1;
      for (size_t j = 0; j < dim1; ++j) grad[j] += g[j];
    }
    for (size_t j = 0; j < d; ++j) grad[j] += options_.l2_lambda * beta_[j];

    // Hessian: X^T diag(w p (1-p)) X  + lambda I (intercept unpenalized).
    Matrix hess(dim1, dim1, 0.0);
    for (size_t c = 0; c < chunks; ++c) {
      const double* h = hess_partial.data() + c * hstride;
      for (size_t a = 0; a < dim1; ++a) {
        for (size_t b = a; b < dim1; ++b) {
          hess.At(a, b) += h[a * dim1 + b];
        }
      }
    }
    for (size_t a = 0; a < d + 1; ++a) {
      for (size_t b = a + 1; b < d + 1; ++b) {
        hess.At(b, a) = hess.At(a, b);
      }
    }
    for (size_t j = 0; j < d; ++j) hess.At(j, j) += options_.l2_lambda;

    Result<std::vector<double>> step = RidgeSolve(hess, grad, 1e-8);
    if (!step.ok()) {
      return Status::NumericalError("LogisticRegression: Newton step failed (" +
                                    step.status().ToString() + ")");
    }

    // Damped update with simple step halving against divergence.
    double max_update = 0.0;
    double scale = 1.0;
    for (double v : step.value()) max_update = std::max(max_update, std::fabs(v));
    if (max_update > 10.0) scale = 10.0 / max_update;
    for (size_t j = 0; j < d; ++j) beta_[j] -= scale * step.value()[j];
    intercept_ -= scale * step.value()[d];

    if (scale * max_update < options_.tolerance) break;
  }

  for (double b : beta_) {
    if (!std::isfinite(b)) {
      return Status::NumericalError("LogisticRegression: diverged");
    }
  }
  if (!std::isfinite(intercept_)) {
    return Status::NumericalError("LogisticRegression: intercept diverged");
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> LogisticRegression::PredictProba(
    const Matrix& x) const {
  std::vector<double> out(x.rows());
  FAIRDRIFT_RETURN_IF_ERROR(PredictProbaInto(x, out.data()));
  return out;
}

Status LogisticRegression::PredictProbaInto(const Matrix& x, double* out,
                                            ThreadPool* pool) const {
  if (!fitted_) {
    return Status::FailedPrecondition("LogisticRegression: not fitted");
  }
  if (x.cols() != beta_.size()) {
    return Status::InvalidArgument(StrFormat(
        "LogisticRegression: %zu features, model expects %zu", x.cols(),
        beta_.size()));
  }
  // Chunk boundaries are fixed (kReductionChunk), so the serial
  // ParallelForEach bypass and every worker count write identical bits.
  ParallelForEach(0, ReductionChunks(x.rows()),
                  pool != nullptr ? pool : options_.pool,
                  [&](size_t chunk) {
                    size_t b = chunk * kReductionChunk;
                    size_t e = std::min(x.rows(), b + kReductionChunk);
                    for (size_t i = b; i < e; ++i) {
                      const double* row = x.RowPtr(i);
                      double acc = intercept_;
                      for (size_t j = 0; j < beta_.size(); ++j) {
                        acc += beta_[j] * row[j];
                      }
                      out[i] = Sigmoid(acc);
                    }
                  });
  return Status::OK();
}

std::unique_ptr<Classifier> LogisticRegression::CloneUnfitted() const {
  return std::make_unique<LogisticRegression>(options_);
}

Status LogisticRegression::SaveFittedTo(BinaryWriter* w) const {
  if (!fitted_) {
    return Status::FailedPrecondition("LogisticRegression: not fitted");
  }
  w->WriteDoubleVector(beta_);
  w->WriteDouble(intercept_);
  return Status::OK();
}

Result<std::unique_ptr<LogisticRegression>> LogisticRegression::LoadFittedFrom(
    BinaryReader* r) {
  Result<std::vector<double>> beta = r->ReadDoubleVector();
  if (!beta.ok()) return beta.status();
  Result<double> intercept = r->ReadDouble();
  if (!intercept.ok()) return intercept.status();
  auto model = std::make_unique<LogisticRegression>();
  model->beta_ = std::move(beta).value();
  model->intercept_ = intercept.value();
  model->fitted_ = true;
  return model;
}

}  // namespace fairdrift
