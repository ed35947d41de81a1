#include "nn/layers.h"

#include <cmath>

#include "nn/kernels.h"
#include "util/rng.h"

namespace qcfe {

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim, Rng* rng)
    : w_(in_dim, out_dim),
      b_(1, out_dim),
      dw_(in_dim, out_dim),
      db_(1, out_dim) {
  double stddev = std::sqrt(2.0 / static_cast<double>(in_dim == 0 ? 1 : in_dim));
  w_.RandomizeGaussian(rng, stddev);
}

Matrix LinearLayer::Forward(const Matrix& input) const {
  Matrix out;
  ForwardInto(input, &out);
  return out;
}

void LinearLayer::ForwardInto(const Matrix& input, Matrix* output) const {
  // Fused bias epilogue: the blocked kernel adds b while the output panel
  // is still in registers instead of a second AddRowBroadcast pass.
  kernels::GemmNNBias(input, w_, b_, output);
}

void LinearLayer::ForwardReluInto(const Matrix& input, Matrix* output) const {
  kernels::GemmNNBiasRelu(input, w_, b_, output);
}

void LinearLayer::BackwardInto(const Matrix& grad_output,
                               const Matrix& /*input*/,
                               const Matrix& /*output*/,
                               Matrix* grad_input) const {
  // dX = dY * W^T, into the caller's scratch buffer. dW and db are summed
  // later from the tape (Mlp::AddParamGrad).
  if (grad_input != nullptr) kernels::GemmBT(grad_output, w_, grad_input);
}

void LinearLayer::ZeroGrad() {
  dw_.Fill(0.0);
  db_.Fill(0.0);
}

Matrix ReluLayer::Forward(const Matrix& input) const {
  Matrix out = input;
  for (double& x : out.data()) x = x > 0.0 ? x : 0.0;
  return out;
}

void ReluLayer::ForwardInto(const Matrix& input, Matrix* output) const {
  kernels::ReluForward(input, output);
}

void ReluLayer::BackwardInto(const Matrix& grad_output, const Matrix& input,
                             const Matrix& /*output*/,
                             Matrix* grad_input) const {
  if (grad_input == nullptr) return;
  // Fused ReLU-mask backward: one pass that copies and masks (or masks in
  // place when grad_input aliases grad_output) instead of the historical
  // copy-then-mask pair.
  kernels::ReluMaskBackward(grad_output, input, grad_input);
}

Matrix SigmoidLayer::Forward(const Matrix& input) const {
  Matrix out;
  ForwardInto(input, &out);
  return out;
}

void SigmoidLayer::ForwardInto(const Matrix& input, Matrix* output) const {
  if (output != &input) {
    output->ResetShapeUninitialized(input.rows(), input.cols());
  }
  // Row-wise, not flat: sigmoid(0) == 0.5, so a flat pass would write into
  // the always-zero pad columns (see matrix.h storage contract).
  for (size_t r = 0; r < input.rows(); ++r) {
    const double* src = input.RowPtr(r);
    double* dst = output->RowPtr(r);
    for (size_t c = 0; c < input.cols(); ++c) {
      dst[c] = 1.0 / (1.0 + std::exp(-src[c]));
    }
  }
}

void SigmoidLayer::BackwardInto(const Matrix& grad_output,
                                const Matrix& /*input*/, const Matrix& output,
                                Matrix* grad_input) const {
  if (grad_input == nullptr) return;
  if (grad_input != &grad_output) {
    grad_input->ResetShapeUninitialized(grad_output.rows(),
                                        grad_output.cols());
  }
  const double* src = grad_output.data().data();
  const double* out = output.data().data();
  double* dst = grad_input->data().data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    double y = out[i];
    dst[i] = src[i] * (y * (1.0 - y));
  }
}

Matrix TanhLayer::Forward(const Matrix& input) const {
  Matrix out = input;
  for (double& x : out.data()) x = std::tanh(x);
  return out;
}

void TanhLayer::ForwardInto(const Matrix& input, Matrix* output) const {
  if (output != &input) {
    output->ResetShapeUninitialized(input.rows(), input.cols());
  }
  const double* src = input.data().data();
  double* dst = output->data().data();
  for (size_t i = 0; i < input.size(); ++i) dst[i] = std::tanh(src[i]);
}

void TanhLayer::BackwardInto(const Matrix& grad_output,
                             const Matrix& /*input*/, const Matrix& output,
                             Matrix* grad_input) const {
  if (grad_input == nullptr) return;
  if (grad_input != &grad_output) {
    grad_input->ResetShapeUninitialized(grad_output.rows(),
                                        grad_output.cols());
  }
  const double* src = grad_output.data().data();
  const double* out = output.data().data();
  double* dst = grad_input->data().data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    double y = out[i];
    dst[i] = src[i] * (1.0 - y * y);
  }
}

}  // namespace qcfe
