#ifndef QCFE_NN_LAYERS_H_
#define QCFE_NN_LAYERS_H_

/// \file layers.h
/// Minimal layer zoo with hand-derived backprop. Layers are stateless with
/// respect to activations: Forward() is const and side-effect free, and
/// Backward() consumes the forward input/output the caller recorded on an
/// Mlp::Tape instead of per-layer caches, and writes only the caller's
/// input-gradient buffer. That makes backprop reentrant — any number of
/// threads can run forward/backward through the same layer concurrently,
/// each with its own tape — which is what chunk-parallel training relies
/// on. Layers compute no parameter gradients: Mlp::AddParamGrad builds
/// them from the tape afterwards.

#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace qcfe {

class Rng;

/// Discriminates layer types for serialization and for the difference-
/// propagation walker in src/core (which re-derives per-layer multipliers).
enum class LayerKind {
  kLinear,
  kRelu,
  kSigmoid,
  kTanh,
};

/// Base layer: batch-in, batch-out, differentiable, activation-stateless.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;

  /// Forward pass for a batch (rows = samples). No caching and no side
  /// effects: safe to call from any number of threads concurrently.
  virtual Matrix Forward(const Matrix& input) const = 0;

  /// Allocation-free variant of Forward for the batched serving path:
  /// writes the result into `output` (reshaped as needed, reusing its
  /// buffer). Numerically identical to Forward. `output` must not alias
  /// `input`.
  virtual void ForwardInto(const Matrix& input, Matrix* output) const {
    *output = Forward(input);
  }

  /// Given dL/d(output) plus this layer's forward input and output (both
  /// recorded on the caller's tape), writes dL/d(input) into `grad_input`
  /// (reshaped reusing its buffer — allocation-free on steady shapes).
  /// For elementwise layers (everything but Linear) `grad_input` may alias
  /// `grad_output`; for Linear it must not alias any operand. A null
  /// `grad_input` skips dL/d(input) (a network's first layer when nobody
  /// reads its input gradient).
  virtual void BackwardInto(const Matrix& grad_output, const Matrix& input,
                            const Matrix& output,
                            Matrix* grad_input) const = 0;

  /// Allocating convenience form of BackwardInto (tests, one-off probes).
  Matrix Backward(const Matrix& grad_output, const Matrix& input,
                  const Matrix& output) const {
    Matrix grad_input;
    BackwardInto(grad_output, input, output, &grad_input);
    return grad_input;
  }

  /// Parameter/gradient pairs for the optimizer (empty for activations).
  /// The gradient matrices are plain optimizer-bound accumulators; Backward
  /// never touches them.
  virtual std::vector<Matrix*> Params() { return {}; }
  virtual std::vector<Matrix*> Grads() { return {}; }

  /// Number of entries Grads() returns (0 for activations), without
  /// materialising the vector.
  virtual size_t num_param_grads() const { return 0; }

  /// Zeroes accumulated parameter gradients.
  virtual void ZeroGrad() {}
};

/// Fully connected layer: out = in * W + b, W is (in_dim x out_dim).
class LinearLayer : public Layer {
 public:
  /// He-style initialisation scaled for the fan-in.
  LinearLayer(size_t in_dim, size_t out_dim, Rng* rng);

  LayerKind kind() const override { return LayerKind::kLinear; }
  Matrix Forward(const Matrix& input) const override;
  void ForwardInto(const Matrix& input, Matrix* output) const override;
  /// Fused linear+ReLU forward (out = relu(in * W + b)) for serving paths
  /// that never need the pre-activation; bit-identical to ForwardInto
  /// followed by a ReLU pass.
  void ForwardReluInto(const Matrix& input, Matrix* output) const;
  void BackwardInto(const Matrix& grad_output, const Matrix& input,
                    const Matrix& output, Matrix* grad_input) const override;
  std::vector<Matrix*> Params() override { return {&w_, &b_}; }
  std::vector<Matrix*> Grads() override { return {&dw_, &db_}; }
  size_t num_param_grads() const override { return 2; }
  void ZeroGrad() override;

  size_t in_dim() const { return w_.rows(); }
  size_t out_dim() const { return w_.cols(); }
  const Matrix& weights() const { return w_; }
  Matrix& weights() { return w_; }
  const Matrix& bias() const { return b_; }
  Matrix& bias() { return b_; }

 private:
  Matrix w_;
  Matrix b_;   // 1 x out_dim
  Matrix dw_;
  Matrix db_;
};

/// Rectified linear unit. The dead-zero gradient of this layer is exactly the
/// failure mode the paper's difference-propagation method works around.
class ReluLayer : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kRelu; }
  Matrix Forward(const Matrix& input) const override;
  void ForwardInto(const Matrix& input, Matrix* output) const override;
  void BackwardInto(const Matrix& grad_output, const Matrix& input,
                    const Matrix& output, Matrix* grad_input) const override;
};

/// Logistic sigmoid.
class SigmoidLayer : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kSigmoid; }
  Matrix Forward(const Matrix& input) const override;
  void ForwardInto(const Matrix& input, Matrix* output) const override;
  void BackwardInto(const Matrix& grad_output, const Matrix& input,
                    const Matrix& output, Matrix* grad_input) const override;
};

/// Hyperbolic tangent.
class TanhLayer : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kTanh; }
  Matrix Forward(const Matrix& input) const override;
  void ForwardInto(const Matrix& input, Matrix* output) const override;
  void BackwardInto(const Matrix& grad_output, const Matrix& input,
                    const Matrix& output, Matrix* grad_input) const override;
};

}  // namespace qcfe

#endif  // QCFE_NN_LAYERS_H_
