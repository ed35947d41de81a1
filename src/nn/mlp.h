#ifndef QCFE_NN_MLP_H_
#define QCFE_NN_MLP_H_

/// \file mlp.h
/// Multi-layer perceptron built from the layers in layers.h. This is the
/// building block for both estimators: QPPNet instantiates one Mlp "neural
/// unit" per physical operator type; MSCN uses Mlps as set modules and as the
/// final regressor.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace qcfe {

class ByteReader;
class ByteWriter;
class Rng;

/// Activation used between hidden layers.
enum class Activation {
  kRelu,
  kSigmoid,
  kTanh,
};

/// Feed-forward network: Linear(+act) x hidden, final Linear (no activation).
class Mlp {
 public:
  /// Builds [in, h1, h2, ..., out] with the given hidden activation. The
  /// paper's models use ReLU; Sigmoid/Tanh exist for ablation tests.
  Mlp(const std::vector<size_t>& layer_dims, Activation act, Rng* rng);

  /// Empty net, filled by AppendLayer (composite views). Artifacts restore
  /// weights with LoadBinary into a net built with the saved dims instead.
  Mlp() = default;

  /// Caller-owned activation record of one forward pass: activations[0] is
  /// the network input, activations[i] the input of layer i, and
  /// activations[num_layers] the output. A tape is what Backward() reads
  /// instead of per-layer caches, so forward/backward is reentrant: any
  /// number of threads may run Forward/Backward through the same Mlp
  /// concurrently as long as each owns its tape. The difference-propagation
  /// walker in src/core consumes the same record.
  ///
  /// A tape also keeps the gradient record of the last Backward():
  /// grads[i] is dL/d(activations[i]), so grads[i + 1] is layer i's output
  /// gradient, which AddParamGrad turns into parameter gradients. All tape
  /// matrices are reused across Forward/Backward calls (reshaped in
  /// place), so steady-state training steps on a reused tape never touch
  /// the allocator.
  struct Tape {
    std::vector<Matrix> activations;
    /// Sized by Forward() to match `activations`; a caller may build the
    /// output gradient in grads.back() and pass that to Backward().
    std::vector<Matrix> grads;
    /// InputGradient's one-hot seed (not part of either record).
    Matrix seed;
  };

  /// Forward pass recording every layer input plus the final output on
  /// `tape` for a subsequent Backward(); returns the output (a reference
  /// into the tape, invalidated by the next Forward on it). Tape matrices
  /// are reused across calls. Thread-safe: the network is read-only, all
  /// state lands on the caller's tape.
  const Matrix& Forward(const Matrix& input, Tape* tape) const;

  /// Inference-only forward (no tape recorded).
  Matrix Predict(const Matrix& input) const;

  /// Reusable ping-pong buffers for allocation-free batched inference. One
  /// scratch may be shared across any number of Predict calls (and across
  /// different Mlps), as long as the previous result has been consumed.
  struct Scratch {
    Matrix ping, pong;
  };

  /// Matrix-batched inference forward for the serving hot path: rows are
  /// samples, layer outputs are written through the caller-owned scratch so
  /// steady-state prediction does not allocate, and Linear+ReLU pairs run
  /// as one fused kernel (the pre-activation is never materialised). The
  /// returned reference points into `scratch` and is invalidated by the
  /// next call. Numerically identical to Predict() row for row.
  const Matrix& Predict(const Matrix& input, Scratch* scratch) const;

  /// Backprop from dL/d(output) through the activations recorded on `tape`
  /// (which must come from a Forward() on this network with the matching
  /// input), recording every dL/d(activations[i]) in tape->grads. Nothing
  /// outside the tape is written: parameter gradients come afterwards from
  /// AddParamGrad, and gradient probes stay side-effect free. Returns
  /// dL/d(input), a reference into the tape (invalidated by the next
  /// Backward on it); with `input_grad` false that last product is skipped
  /// and the returned matrix is stale. `grad_output` may be the tape's own
  /// grads.back().
  const Matrix& Backward(const Matrix& grad_output, Tape* tape,
                         bool input_grad = true) const;

  /// Adds the gradient of parameter slot `slot` (Grads() order) from the
  /// Backward() recorded on `tape` into `grad`, with the tape's rows cut at
  /// `bounds` into segments (kernels::GemmATAccumulateSegments and
  /// ColSumAccumulateSegments): each segment is one zero-seeded sum added
  /// with one unfused add, in order; `{0, rows}` is the plain one-segment
  /// gradient. Calls for several tapes in sequence continue the same
  /// ordered chain of adds, so training that cuts each batch into chunks
  /// gets one chain per chunk, added in chunk order, however the rows were
  /// spread over tapes. Only the layer's input and output-gradient records
  /// are read, so `tape` may be one built by PackParamRow.
  /// Only rows [row_begin, row_end) of `grad` are updated, so one slot can
  /// be split across tasks by rows.
  void AddParamGrad(size_t slot, const Tape& tape,
                    const std::vector<size_t>& bounds, Matrix* grad,
                    size_t row_begin = 0, size_t row_end = SIZE_MAX) const;

  /// Shapes `packed` to hold `rows` rows of what AddParamGrad reads: each
  /// linear layer's input and output-gradient records. The rows' contents
  /// are unspecified until PackParamRow writes them.
  void ShapeParamRows(size_t rows, Tape* packed) const;

  /// Copies the AddParamGrad records of the one-row Backward() on `tape`
  /// into row `row` of `packed` (shaped by ShapeParamRows), so many
  /// single-row passes are summed as one batch. Calls for distinct rows
  /// may run concurrently.
  void PackParamRow(const Tape& tape, size_t row, Tape* packed) const;

  /// d(output_0)/d(input) for each sample: runs Forward+Backward with a
  /// one-hot output gradient on the caller's tape, so optimizer-bound
  /// parameter grads are untouched (byte-for-byte), and repeated probes
  /// (the gradient-importance sweep in feature reduction) reuse one
  /// scratch arena. Returns a (batch x in_dim) matrix.
  Matrix InputGradient(const Matrix& input, Tape* tape) const;

  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  size_t num_layers() const { return layers_.size(); }
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  /// Appends architecture + weights to `w` in the exact little-endian binary
  /// form used by model artifacts (core/artifact.h) — doubles as bit
  /// patterns, so a round trip is bit-identical.
  void SaveBinary(ByteWriter* w) const;
  /// Restores weights saved with SaveBinary **in place**: the saved
  /// architecture (layer count, kinds, dims, activation) must match this
  /// already-constructed network exactly — weights are overwritten but no
  /// layer is reallocated, so parameter pointers handed to an optimizer at
  /// construction stay bound. Architecture mismatch is kFailedPrecondition;
  /// truncated bytes are kDataLoss.
  Status LoadBinary(ByteReader* r);

  /// Appends a layer (composite-view construction: feature reduction builds
  /// "embed -> unit -> select" stacks from trained layers). Updates
  /// in_dim/out_dim bookkeeping for Linear layers.
  void AppendLayer(std::unique_ptr<Layer> layer);

  /// Deep-copies a single layer.
  static std::unique_ptr<Layer> CloneLayer(const Layer& layer);

  /// A zero-initialised Linear layer (weights and bias all 0) for callers
  /// that assemble affine embeddings by hand.
  static std::unique_ptr<LinearLayer> MakeZeroLinear(size_t in, size_t out);

  /// Rebuilds the first linear layer keeping only the given input columns.
  /// This is how feature reduction physically shrinks a trained model.
  Status ShrinkInputs(const std::vector<size_t>& kept_columns);

 private:
  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
  Activation act_ = Activation::kRelu;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace qcfe

#endif  // QCFE_NN_MLP_H_
