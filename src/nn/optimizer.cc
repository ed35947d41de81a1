#include "nn/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "nn/kernels.h"
#include "nn/matrix_io.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace qcfe {

namespace {

/// Sum of squares in no particular order (four running sums, so the loop
/// is not one long dependency chain). Only ever used as a bound.
double SumSquares(const double* begin, const double* end) {
  const size_t n = static_cast<size_t>(end - begin);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t k = 0; k < 4; ++k) acc[k] += begin[i + k] * begin[i + k];
  }
  for (; i < n; ++i) acc[0] += begin[i] * begin[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SumSquares(const Matrix& m) {
  const double* d = m.data().data();
  return SumSquares(d, d + m.size());
}

bool AllZero(const Matrix& m) {
  for (double v : m.data()) {
    if (v != 0.0) return false;
  }
  return true;
}

/// True when the sums of squares prove the serial chain's squared norm
/// finite and below `limit`. Two summation orders of the same n
/// non-negative terms differ by a relative error of at most about
/// n * DBL_EPSILON. Requiring that to be under 1e-8, and the sum to clear
/// `limit` by a relative 1e-6, settles the comparison exactly.
bool ClearlyBelow(const std::vector<Matrix*>& grads,
                  const std::vector<double>& slot_sq, double limit) {
  double sum = 0.0;
  double n = 0.0;
  for (size_t s = 0; s < grads.size(); ++s) {
    sum += slot_sq[s];
    n += static_cast<double>(grads[s]->size());
  }
  return n * std::numeric_limits<double>::epsilon() < 1e-8 &&
         std::isfinite(limit) && sum < limit * (1.0 - 1e-6);
}

}  // namespace

AdamOptimizer::AdamOptimizer(std::vector<Matrix*> params,
                             std::vector<Matrix*> grads, double lr,
                             double beta1, double beta2, double eps)
    : params_(std::move(params)),
      grads_(std::move(grads)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  assert(params_.size() == grads_.size());
  for (Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
}

void AdamOptimizer::SetGrads(const std::vector<GradBlock>& blocks,
                             const BlockFill& fill, ThreadPool* pool,
                             std::vector<double>* slot_sq) {
  std::vector<double> block_sq(blocks.size(), 0.0);
  ParallelFor(pool, blocks.size(), [&](size_t i) {
    const GradBlock& block = blocks[i];
    Matrix* g = grads_[block.slot];
    QCFE_CHECK(block.row_begin <= block.row_end && block.row_end <= g->rows(),
               "AdamOptimizer::SetGrads: block rows outside the gradient");
    // Rows are contiguous in the padded layout (pads are zero), so the
    // block is one flat run of the buffer.
    double* begin = g->data().data() + block.row_begin * g->ld();
    double* end = g->data().data() + block.row_end * g->ld();
    std::fill(begin, end, 0.0);
    fill(block, g);
    block_sq[i] = SumSquares(begin, end);
  });
  if (slot_sq == nullptr) return;
  slot_sq->assign(grads_.size(), 0.0);
  for (size_t i = 0; i < blocks.size(); ++i) {
    (*slot_sq)[blocks[i].slot] += block_sq[i];
  }
}

Status AdamOptimizer::Step(ThreadPool* pool) {
  std::vector<double> slot_sq(grads_.size(), 0.0);
  if (clip_norm_ > 0.0) {
    ParallelFor(pool, grads_.size(),
                [&](size_t s) { slot_sq[s] = SumSquares(*grads_[s]); });
  }
  return Step(pool, slot_sq);
}

Status AdamOptimizer::Step(ThreadPool* pool,
                           const std::vector<double>& slot_sq) {
  QCFE_CHECK(slot_sq.size() == grads_.size(),
             "AdamOptimizer::Step: one sum of squares per gradient slot");
  double scale = 1.0;
  // Usually the norm is well inside the clip radius, and the sums of
  // squares settle that without the serial chain. The chain runs otherwise.
  if (clip_norm_ > 0.0 &&
      !ClearlyBelow(grads_, slot_sq, clip_norm_ * clip_norm_)) {
    // One serial chain in slot order: its rounding is part of the model.
    double norm_sq = 0.0;
    for (const Matrix* g : grads_) {
      if (AllZero(*g)) continue;
      for (double v : g->data()) norm_sq += v * v;
    }
    double norm = std::sqrt(norm_sq);
    if (!std::isfinite(norm)) {
      return Status::NumericError("gradient norm is not finite; no step "
                                  "applied");
    }
    if (norm > clip_norm_) scale = clip_norm_ / norm;
  }
  ++t_;
  double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // The update runs in the active kernel ISA tier (sqrt and divide
  // included — lane arithmetic is IEEE-exact, so every tier produces
  // bit-identical parameters). The Step share of small-model training is
  // large enough that the vectorized tiers matter.
  ParallelFor(pool, params_.size(), [&](size_t i) {
    if (scale != 1.0) {
      for (double& v : grads_[i]->data()) v *= scale;
    }
    kernels::AdamStep(params_[i], *grads_[i], &m_[i], &v_[i], lr_, beta1_,
                      beta2_, eps_, bc1, bc2);
  });
  return Status::OK();
}

void AdamOptimizer::SaveState(ByteWriter* w) const {
  w->PutF64(lr_);
  w->PutF64(beta1_);
  w->PutF64(beta2_);
  w->PutF64(eps_);
  w->PutF64(clip_norm_);
  w->PutI64(t_);
  w->PutU64(m_.size());
  for (const Matrix& m : m_) WriteMatrix(m, w);
  for (const Matrix& v : v_) WriteMatrix(v, w);
}

Status AdamOptimizer::LoadState(ByteReader* r) {
  QCFE_RETURN_IF_ERROR(r->ReadF64(&lr_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&beta1_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&beta2_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&eps_));
  QCFE_RETURN_IF_ERROR(r->ReadF64(&clip_norm_));
  QCFE_RETURN_IF_ERROR(r->ReadI64(&t_));
  uint64_t slots = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&slots));
  if (slots != m_.size()) {
    return Status::FailedPrecondition(
        "adam state has " + std::to_string(slots) +
        " moment slots, this optimizer is bound to " +
        std::to_string(m_.size()) + " parameters");
  }
  for (size_t i = 0; i < m_.size(); ++i) {
    QCFE_RETURN_IF_ERROR(ReadMatrixInto(r, &m_[i]).WithContext(
        "adam first-moment slot " + std::to_string(i)));
  }
  for (size_t i = 0; i < v_.size(); ++i) {
    QCFE_RETURN_IF_ERROR(ReadMatrixInto(r, &v_[i]).WithContext(
        "adam second-moment slot " + std::to_string(i)));
  }
  return Status::OK();
}

}  // namespace qcfe
