/// Micro benchmarks (google-benchmark) for the performance-critical pieces:
/// B+-tree operations, query planning/execution, model inference, snapshot
/// fitting and difference-propagation reduction. These back the inference
/// time columns of Table IV and the runtime column of Table VI.
///
/// The *Threads benchmarks sweep the thread-pool parallelism layer
/// (Pipeline::Fit wall-time and batched serving throughput at 1/2/4/8
/// workers), the KernelGemm sweep times each dispatched kernel at the real
/// layer shapes, and the *AsyncThroughput benchmarks measure the
/// micro-batching front end against one-at-a-time PredictMs under 8
/// concurrent callers. BM_BuildDatabase times one synthetic database build
/// per benchmark at harness quick scale; BM_CollectCorpus times one
/// single-threaded 1,500-query corpus collection on it.
/// BM_ParallelForDispatch times one fork-join ParallelFor (empty and ~100 µs
/// bodies at 4, 8 and 32 indices) on a 4-worker pool. Select sweeps with
/// google-benchmark's own flags, e.g.
///   bench_micro --benchmark_filter='Threads|Kernel|Async'
/// (--benchmark_format=json for machine-readable output). End-to-end
/// figures come from perfbench (perfbench/run.py), not from this binary.
///
/// `bench_micro --smoke` skips benchmarking and instead runs the kernel
/// parity sweep end to end, once per ISA tier available on this machine:
/// every tier slot must agree with every other slot computing the same
/// product bit for bit, and with the reference loops bit for bit on the
/// scalar tier or within kSimdRelTolerance on AVX2 (the per-tier max
/// relative error is reported); a short training loop must reproduce its
/// per-tier pinned weights. Exits non-zero on any violation — the CI gate
/// for the kernel layer. (The QCFE_KERNEL_ISA pin selects the tier used by
/// ordinary dispatch; the smoke gate still sweeps every tier the hardware
/// and build provide.)
///
/// The *KernelIsa benchmarks measure the scalar tier against the detected
/// SIMD tier (dense GEMM at the real layer shapes, plus whole-model train
/// and batched serving).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/drift_detector.h"
#include "core/feature_reduction.h"
#include "core/feature_snapshot.h"
#include "engine/btree.h"
#include "harness/evaluate.h"
#include "models/registry.h"
#include "nn/kernels.h"
#include "nn/kernels_internal.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qcfe {
namespace {

// Shared lazy fixture: a small sysbench context + trained QPPNet/MSCN, both
// instantiated through the estimator registry like any serving deployment.
struct MicroFixture {
  std::unique_ptr<BenchmarkContext> ctx;
  std::vector<PlanSample> train, test;
  std::unique_ptr<BaseFeaturizer> featurizer;
  std::unique_ptr<CostModel> qpp;
  std::unique_ptr<CostModel> mscn;

  static MicroFixture& Get() {
    static MicroFixture* fixture = [] {
      auto* f = new MicroFixture();
      HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
      opt.corpus_size = 400;
      auto ctx = BenchmarkContext::Create(opt);
      f->ctx = std::move(ctx.value());
      f->ctx->Split(400, &f->train, &f->test);
      f->featurizer = std::make_unique<BaseFeaturizer>(f->ctx->db->catalog());
      EstimatorRegistry& registry = EstimatorRegistry::Global();
      f->qpp = std::move(registry
                             .Create("qppnet", {f->ctx->db->catalog(),
                                                f->featurizer.get(), 1})
                             .value());
      f->mscn = std::move(registry
                              .Create("mscn", {f->ctx->db->catalog(),
                                               f->featurizer.get(), 2})
                              .value());
      TrainConfig cfg;
      cfg.epochs = 8;
      QCFE_CHECK_OK(f->qpp->Train(f->train, cfg, nullptr));
      QCFE_CHECK_OK(f->mscn->Train(f->train, cfg, nullptr));
      return f;
    }();
    return *fixture;
  }

  /// `n` serving requests drawn by cycling the test split (80 distinct
  /// queries). Batches up to 80 are fully distinct; larger batches model
  /// templated serving traffic where requests repeat (~3.2x at n=256) and
  /// the batched path's request dedup kicks in on top of matrix batching.
  std::vector<PlanSample> BatchOf(size_t n) const {
    std::vector<PlanSample> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) batch.push_back(test[i % test.size()]);
    return batch;
  }
};

void BM_MatMul(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, n), b(n, n);
  a.RandomizeGaussian(&rng, 1.0);
  b.RandomizeGaussian(&rng, 1.0);
  for (auto _ : state) {
    Matrix c = Matrix::MatMul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128);

void BM_BTreeBulkLoad(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < n; ++i) {
    entries.emplace_back(rng.Uniform(0, 1e6), i);
  }
  for (auto _ : state) {
    BPlusTree tree;
    tree.BulkLoad(entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_BTreeRangeScan(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 100000; ++i) {
    entries.emplace_back(static_cast<double>(i), i);
  }
  BPlusTree tree;
  tree.BulkLoad(std::move(entries));
  for (auto _ : state) {
    std::vector<uint32_t> out;
    double lo = rng.Uniform(0, 90000);
    tree.RangeScan(lo, true, lo + 1000, true, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BTreeRangeScan);

// One synthetic database build (rows, indexes, ANALYZE) at harness quick
// scale: the database every quick paper bench and the repo benchmark's
// setup phase start from. sysbench and job-light draw Zipf columns; TPC-H
// draws none.
void BM_BuildDatabase(benchmark::State& state, const char* name) {
  const HarnessOptions opt = OptionsFor(name, RunScale::kQuick);
  auto workload = MakeBenchmark(name);
  QCFE_CHECK_OK(workload.status());
  for (auto _ : state) {
    auto db = (*workload)->BuildDatabase(opt.scale_factor, opt.seed);
    benchmark::DoNotOptimize(db.get());
  }
}
BENCHMARK_CAPTURE(BM_BuildDatabase, tpch, "tpch")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildDatabase, sysbench, "sysbench")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildDatabase, joblight, "joblight")
    ->Unit(benchmark::kMillisecond);

// One labelled-corpus collection (1,500 queries, single thread) at harness
// quick options: the executor-bound part of every quick paper bench and of
// the repo benchmark's setup phase. The execution cache is cleared per
// iteration, so each one executes what a fresh setup executes.
void BM_CollectCorpus(benchmark::State& state, const char* name) {
  const HarnessOptions opt = OptionsFor(name, RunScale::kQuick);
  auto workload = MakeBenchmark(name);
  QCFE_CHECK_OK(workload.status());
  auto db = (*workload)->BuildDatabase(opt.scale_factor, opt.seed);
  const std::vector<Environment> envs = EnvironmentSampler::Sample(
      opt.num_envs, HardwareProfile::H1(), opt.seed * 31 + 5);
  const std::vector<QueryTemplate> templates = (*workload)->Templates();
  QueryCollector collector(db.get(), &envs);
  for (auto _ : state) {
    db->ClearExecutionCache();
    auto corpus = collector.Collect(templates, 1500, opt.seed * 13 + 3);
    QCFE_CHECK_OK(corpus.status());
    benchmark::DoNotOptimize(corpus->collection_ms);
  }
  state.SetItemsProcessed(state.iterations() * 1500);
}
BENCHMARK_CAPTURE(BM_CollectCorpus, tpch, "tpch")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectCorpus, sysbench, "sysbench")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectCorpus, joblight, "joblight")
    ->Unit(benchmark::kMillisecond);

void BM_PlanQuery(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  QuerySpec spec;
  spec.tables = {"sbtest1"};
  Predicate p;
  p.column = {"sbtest1", "id"};
  p.op = CompareOp::kBetween;
  p.literals = {Value(int64_t{100}), Value(int64_t{199})};
  spec.filters = {p};
  Knobs knobs;
  for (auto _ : state) {
    auto plan = f.ctx->db->Plan(spec, knobs);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanQuery);

void BM_ExecuteQueryCached(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  QuerySpec spec;
  spec.tables = {"sbtest1"};
  Predicate p;
  p.column = {"sbtest1", "id"};
  p.op = CompareOp::kBetween;
  p.literals = {Value(int64_t{100}), Value(int64_t{199})};
  spec.filters = {p};
  Environment env;
  env.hardware = HardwareProfile::H1();
  Rng noise(5);
  for (auto _ : state) {
    auto run = f.ctx->db->Run(spec, env, &noise);
    benchmark::DoNotOptimize(run.ok());
  }
}
BENCHMARK(BM_ExecuteQueryCached);

void BM_QppNetInference(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const PlanSample& s = f.test[i++ % f.test.size()];
    auto p = f.qpp->PredictMs(*s.plan, s.env_id);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_QppNetInference);

void BM_MscnInference(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const PlanSample& s = f.test[i++ % f.test.size()];
    auto p = f.mscn->PredictMs(*s.plan, s.env_id);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_MscnInference);

// Batched vs per-plan serving throughput. items_per_second is served
// requests/sec: compare BM_*PredictScalar/N against BM_*PredictBatch/N at
// the same batch size. PredictMs is one direct PredictShard call on its
// single request, so the scalar loop times N of those. Batch sizes 1 and
// 32 are fully-distinct plans and isolate the matrix-batching/allocation
// win; 256 exceeds the 80-query
// workload (see BatchOf) and additionally measures request deduplication —
// the dominant effect for template-heavy serving traffic, where it pushes
// the batched path past 3x the per-plan loop.

void BM_QppNetPredictScalar(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& s : batch) {
      auto p = f.qpp->PredictMs(*s.plan, s.env_id);
      benchmark::DoNotOptimize(p.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_QppNetPredictScalar)->Arg(1)->Arg(32)->Arg(256);

void BM_QppNetPredictBatch(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto p = f.qpp->PredictBatchMs(batch, nullptr);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_QppNetPredictBatch)->Arg(1)->Arg(32)->Arg(256);

void BM_MscnPredictScalar(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& s : batch) {
      auto p = f.mscn->PredictMs(*s.plan, s.env_id);
      benchmark::DoNotOptimize(p.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MscnPredictScalar)->Arg(1)->Arg(32)->Arg(256);

void BM_MscnPredictBatch(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto p = f.mscn->PredictBatchMs(batch, nullptr);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MscnPredictBatch)->Arg(1)->Arg(32)->Arg(256);

// ----------------------------------------------------- thread-pool sweeps

// ------------------------------------------------------- kernel sweeps

/// GEMM shapes drawn from the real QPPNet/MSCN layer dims this binary
/// trains and serves: per-node training rows, wave-batched serving
/// buckets, packed set-module element matrices — sparse (one-hot/padded)
/// and dense (standardized activations) variants of each.
struct KernelShape {
  const char* variant;  // "nn" (a*b+bias), "bt" (a*b^T), "at" (acc+=a^T*b)
  size_t m, k, n;       // a is (m x k); nn: b (k x n); bt: b (n x k);
                        // at: a is (k x m), b (k x n), acc (m x n)
  double sparsity;      // zero fraction planted in a
};

constexpr KernelShape kKernelShapes[] = {
    {"nn", 1, 66, 48, 0.90},    // QPPNet unit L1, per-node training row
    {"nn", 1, 48, 48, 0.00},    // QPPNet unit L2 row, dense activation
    {"nn", 64, 66, 48, 0.25},   // QPPNet wave bucket (padded child slots)
    {"nn", 256, 58, 32, 0.95},  // MSCN predicate module, one-hot rows
    {"nn", 256, 26, 64, 0.00},  // MSCN operator module, standardized dense
    {"nn", 80, 96, 64, 0.00},   // MSCN final module over the 3h concat
    {"bt", 1, 48, 66, 0.00},    // dX = dY * W^T, per-node backward row
    {"bt", 64, 48, 48, 0.00},   // batched hidden-layer backward
    {"at", 66, 1, 48, 0.90},    // dW += x^T dY, one row (k = 1)
    {"at", 58, 16, 32, 0.95},   // dW += X^T dY, MSCN chunk (one-hot rows)
    {"at", 48, 64, 48, 0.00},   // dense batched accumulate
};
constexpr int kNumKernelShapes =
    static_cast<int>(sizeof(kKernelShapes) / sizeof(kKernelShapes[0]));

Matrix RandomWithSparsity(size_t rows, size_t cols, double sparsity,
                          Rng* rng) {
  Matrix m(rows, cols);
  // Row-wise on purpose: a flat walk over data() would also fill the
  // alignment pad columns, which must stay exactly zero.
  for (size_t r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = rng->Uniform(0.0, 1.0) < sparsity ? 0.0 : rng->Gaussian(0.0, 1.0);
    }
  }
  return m;
}

/// One dispatched kernel invocation per iteration at the shape table
/// entry state.range(0).
void BM_KernelGemm(benchmark::State& state) {
  const KernelShape& shape = kKernelShapes[state.range(0)];
  Rng rng(41);
  Matrix a, b, bias, out;
  if (std::strcmp(shape.variant, "nn") == 0) {
    a = RandomWithSparsity(shape.m, shape.k, shape.sparsity, &rng);
    b = RandomWithSparsity(shape.k, shape.n, 0.0, &rng);
    bias = RandomWithSparsity(1, shape.n, 0.0, &rng);
  } else if (std::strcmp(shape.variant, "bt") == 0) {
    a = RandomWithSparsity(shape.m, shape.k, shape.sparsity, &rng);
    b = RandomWithSparsity(shape.n, shape.k, 0.0, &rng);
  } else {
    a = RandomWithSparsity(shape.k, shape.m, shape.sparsity, &rng);
    b = RandomWithSparsity(shape.k, shape.n, 0.0, &rng);
    out.ResetShape(shape.m, shape.n);
  }
  const std::vector<size_t> whole = {0, shape.k};
  size_t iters = 0;
  for (auto _ : state) {
    if (std::strcmp(shape.variant, "nn") == 0) {
      kernels::GemmNNBias(a, b, bias, &out);
    } else if (std::strcmp(shape.variant, "bt") == 0) {
      kernels::GemmBT(a, b, &out);
    } else {
      kernels::GemmATAccumulateSegments(a, b, whole, &out);
    }
    benchmark::DoNotOptimize(out.data().data());
    ++iters;
  }
  state.SetItemsProcessed(static_cast<int64_t>(iters) *
                          static_cast<int64_t>(shape.m * shape.k * shape.n));
}
BENCHMARK(BM_KernelGemm)->DenseRange(0, kNumKernelShapes - 1, 1);

/// Scalar tier vs the detected SIMD tier on dense GemmNN at the real layer
/// shapes (the first six table entries are the "nn" variants). The sweep
/// calls each tier's register panel directly, so it times the panel
/// kernels themselves; on a machine with no SIMD tier both legs run scalar
/// and the two legs time the same.
void BM_KernelIsaGemm(benchmark::State& state) {
  const KernelShape& shape = kKernelShapes[state.range(0)];
  const int tier = static_cast<int>(state.range(1));
  const kernels::internal::KernelTable& table = kernels::internal::TableFor(
      tier == 0 ? kernels::KernelIsa::kScalar : kernels::DetectKernelIsa());
  Rng rng(43);
  Matrix a = RandomWithSparsity(shape.m, shape.k, shape.sparsity, &rng);
  Matrix b = RandomWithSparsity(shape.k, shape.n, 0.0, &rng);
  Matrix out;
  size_t iters = 0;
  for (auto _ : state) {
    table.dense_nn(a, b, nullptr, &out, kernels::internal::Epilogue::kNone);
    benchmark::DoNotOptimize(out.data().data());
    ++iters;
  }
  state.SetItemsProcessed(static_cast<int64_t>(iters) *
                          static_cast<int64_t>(shape.m * shape.k * shape.n));
}
BENCHMARK(BM_KernelIsaGemm)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 5, 1), {0, 1}});

/// Whole-model training under the scalar tier (range(0) == 0) vs the
/// detected SIMD tier, production dispatch — the end-to-end vectorization
/// win in isolation.
template <const char* kModel>
void BM_TrainKernelIsa(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const int tier = static_cast<int>(state.range(0));
  kernels::ScopedKernelIsa pin(tier == 0 ? kernels::KernelIsa::kScalar
                                         : kernels::DetectKernelIsa());
  TrainConfig cfg;
  cfg.epochs = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto model = EstimatorRegistry::Global()
                     .Create(kModel, {f.ctx->db->catalog(),
                                      f.featurizer.get(), 3})
                     .value();
    state.ResumeTiming();
    benchmark::DoNotOptimize(model->Train(f.train, cfg, nullptr).ok());
  }
}

/// Single-thread batched serving at batch 256 under the scalar tier vs the
/// detected SIMD tier.
template <const char* kModel>
void BM_PredictBatchKernelIsa(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const int tier = static_cast<int>(state.range(0));
  kernels::ScopedKernelIsa pin(tier == 0 ? kernels::KernelIsa::kScalar
                                         : kernels::DetectKernelIsa());
  const CostModel* model =
      std::string(kModel) == "qppnet" ? f.qpp.get() : f.mscn.get();
  std::vector<PlanSample> batch = f.BatchOf(256);
  for (auto _ : state) {
    auto p = model->PredictBatchMs(batch, nullptr);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}

/// Full QCFE pipeline fit (snapshot + reduction + training) at a given
/// worker count. All thread counts produce bit-identical pipelines, so the
/// sweep isolates pure wall-clock scaling.
void BM_PipelineFitThreads(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  int threads = static_cast<int>(state.range(0));
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.train.epochs = 6;
  cfg.pre_reduction_epochs = 4;
  cfg.parallelism.num_threads = threads;
  for (auto _ : state) {
    auto pipeline = f.ctx->FitPipeline(cfg, f.train);
    benchmark::DoNotOptimize(pipeline.ok());
  }
}
BENCHMARK(BM_PipelineFitThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Chunk-parallel gradient training at a given worker count: a fresh
/// estimator per iteration, trained for a fixed epoch budget through the
/// attached pool. All thread counts produce bit-identical models (fixed
/// chunk partition + chunk-order gradient sums), so the sweep isolates
/// pure wall-clock scaling of Train itself.
template <const char* kModel>
void BM_TrainThreads(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  TrainConfig cfg;
  cfg.epochs = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto model = EstimatorRegistry::Global()
                     .Create(kModel, {f.ctx->db->catalog(),
                                      f.featurizer.get(), 3})
                     .value();
    model->set_thread_pool(pool.get());
    state.ResumeTiming();
    benchmark::DoNotOptimize(model->Train(f.train, cfg, nullptr).ok());
  }
}

/// Fork-join cost of one ParallelFor on a 4-worker pool. Arg 0 is the body:
/// 0 = empty, 1 = a dependent multiply-add chain of about 100 µs on a
/// 2.4 GHz x86 core. Arg 1 is the index count. The empty body measures pure
/// dispatch (publish, wake, join); the busy body shows how close a balanced
/// loop gets to n / 4 bodies of wall time.
void BM_ParallelForDispatch(benchmark::State& state) {
  static ThreadPool pool(4);
  const bool busy = state.range(0) != 0;
  const size_t n = static_cast<size_t>(state.range(1));
  std::vector<double> out(n);
  for (auto _ : state) {
    ParallelFor(&pool, n, [&](size_t i) {
      double x = static_cast<double>(i);
      if (busy) {
        for (int k = 0; k < 30000; ++k) x = x * 0.999999 + 1.0;
      }
      out[i] = x;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgsProduct({{0, 1}, {4, 8, 32}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

template <const char* kModel>
void BM_PredictBatchThreads(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const CostModel* model =
      std::string(kModel) == "qppnet" ? f.qpp.get() : f.mscn.get();
  std::vector<PlanSample> batch = f.BatchOf(256);
  for (auto _ : state) {
    auto p = model->PredictBatchMs(batch, pool.get());
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
constexpr char kQppName[] = "qppnet";
constexpr char kMscnName[] = "mscn";
BENCHMARK_TEMPLATE(BM_TrainThreads, kQppName)
    ->Name("BM_QppNetTrainThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TrainThreads, kMscnName)
    ->Name("BM_MscnTrainThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_PredictBatchThreads, kQppName)
    ->Name("BM_QppNetPredictBatchThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);
BENCHMARK_TEMPLATE(BM_PredictBatchThreads, kMscnName)
    ->Name("BM_MscnPredictBatchThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);
BENCHMARK_TEMPLATE(BM_TrainKernelIsa, kQppName)
    ->Name("BM_QppNetTrainKernelIsa")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TrainKernelIsa, kMscnName)
    ->Name("BM_MscnTrainKernelIsa")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_PredictBatchKernelIsa, kQppName)
    ->Name("BM_QppNetPredictBatchKernelIsa")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_TEMPLATE(BM_PredictBatchKernelIsa, kMscnName)
    ->Name("BM_MscnPredictBatchKernelIsa")
    ->Arg(0)
    ->Arg(1);

// ----------------------------------------------------- async serving sweep

/// Online-serving throughput under concurrent callers: 8 caller threads
/// each issue 256 single-plan requests (cycling the 80-query test split
/// with per-caller offsets, so traffic repeats like templated workloads).
/// Both modes serve one fitted pipeline (the bare estimator: no snapshot,
/// no reduction, serial), published once. Mode 0 is the baseline every
/// caller starts from — one-at-a-time Pipeline::PredictMs, no batching
/// anywhere; mode 1 routes the same traffic through an AsyncServer, which
/// coalesces the callers' singleton submissions into micro-batches.
template <const char* kModel>
void BM_AsyncThroughput(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  static SwappableModel* const models = [&f] {
    PipelineConfig cfg;
    cfg.estimator = kModel;
    cfg.use_snapshot = false;
    cfg.use_reduction = false;
    cfg.train.epochs = 8;
    auto fitted = f.ctx->FitPipeline(cfg, f.train);
    QCFE_CHECK(fitted.ok(), "async bench pipeline fit failed");
    return new SwappableModel(
        std::shared_ptr<const Pipeline>(std::move(fitted.value())));
  }();
  const std::shared_ptr<const Pipeline> pipeline = models->Current();
  const int mode = static_cast<int>(state.range(0));
  constexpr size_t kCallers = 8;
  constexpr size_t kPerCaller = 256;
  auto sample = [&](size_t caller, size_t i) -> const PlanSample& {
    return f.test[(caller * 17 + i) % f.test.size()];
  };
  for (auto _ : state) {
    if (mode == 0) {
      std::vector<std::thread> callers;
      callers.reserve(kCallers);
      for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          for (size_t i = 0; i < kPerCaller; ++i) {
            const PlanSample& s = sample(c, i);
            auto p = pipeline->PredictMs(*s.plan, s.env_id);
            benchmark::DoNotOptimize(p.ok());
          }
        });
      }
      for (std::thread& t : callers) t.join();
    } else {
      AsyncServeConfig cfg;
      cfg.max_batch = 512;
      cfg.max_delay_micros = 2000;
      cfg.max_queue = 0;
      AsyncServer server(models, cfg);
      std::vector<std::vector<std::future<Result<double>>>> futures(kCallers);
      std::vector<std::thread> callers;
      callers.reserve(kCallers);
      for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          futures[c].reserve(kPerCaller);
          for (size_t i = 0; i < kPerCaller; ++i) {
            const PlanSample& s = sample(c, i);
            futures[c].push_back(server.Submit(*s.plan, s.env_id));
          }
        });
      }
      for (std::thread& t : callers) t.join();
      // Traffic is finite here (closed-loop bench): drain whatever is still
      // queued and join the flusher, so the timed loop ends with every
      // future ready. (The flusher cuts the tail at once anyway: it is idle
      // as soon as the batch ahead of the tail comes back.)
      server.Shutdown(AsyncServer::ShutdownMode::kDrain);
      for (auto& caller_futures : futures) {
        for (auto& fut : caller_futures) {
          auto p = fut.get();
          benchmark::DoNotOptimize(p.ok());
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCallers * kPerCaller));
}
BENCHMARK_TEMPLATE(BM_AsyncThroughput, kQppName)
    ->Name("BM_QppNetAsyncThroughput")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_AsyncThroughput, kMscnName)
    ->Name("BM_MscnAsyncThroughput")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- adaptation cycle cost

/// Latency of one online-adaptation cycle while the server is under load:
/// 4 caller threads hammer a hot-swappable AsyncServer with singleton
/// submissions for the whole iteration; the measured thread meanwhile runs
/// the cycle's two legs — (a) warm-start Retrain + atomic Save, (b)
/// LoadAndSwap publish with a bit-parity probe. The per-iteration means
/// of both legs are reported as the retrain_save_ms and swap_ms counters;
/// swap_ms is the number that bounds how stale a drifted model can stay
/// once retraining has finished.
void BM_AdaptRetrainSwap(benchmark::State& state) {
  struct AdaptFixture {
    std::unique_ptr<BenchmarkContext> ctx;
    std::vector<PlanSample> train, test, drifted;
    std::unique_ptr<Pipeline> trainer;
    static AdaptFixture& Get() {
      static AdaptFixture* fixture = [] {
        auto* f = new AdaptFixture();
        HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
        opt.corpus_size = 200;
        opt.num_envs = 2;
        f->ctx = std::move(BenchmarkContext::Create(opt).value());
        f->ctx->Split(200, &f->train, &f->test);
        for (size_t i = 0; i < 64; ++i) {
          f->drifted.push_back({f->train[i].plan, f->train[i].env_id,
                                4.0 * f->train[i].label_ms});
        }
        PipelineConfig cfg;
        cfg.estimator = "qppnet";
        cfg.pre_reduction_epochs = 2;
        cfg.train.epochs = 5;
        f->trainer = std::move(f->ctx->FitPipeline(cfg, f->train).value());
        return f;
      }();
      return *fixture;
    }
  };
  AdaptFixture& f = AdaptFixture::Get();
  const std::string path = "/tmp/qcfe_bench_adapt.qcfa";
  QCFE_CHECK_OK(f.trainer->Save(path));

  SwappableModel models;
  AsyncServeConfig scfg;
  scfg.max_batch = 64;
  scfg.max_delay_micros = 200;
  auto server = Pipeline::ServeAsync(&models, scfg);
  QCFE_CHECK(LoadAndSwap(f.ctx->db.get(), &f.ctx->envs, &f.ctx->templates,
                         path, {}, &models, server.get())
                 .ok(),
             "adapt bench initial publish failed");

  constexpr size_t kCallers = 4;
  double retrain_save_ms = 0.0;
  double swap_ms = 0.0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const PlanSample& s = f.test[(c * 17 + i) % f.test.size()];
          auto p = server->Submit(*s.plan, s.env_id).get();
          benchmark::DoNotOptimize(p.ok());
        }
      });
    }

    TrainConfig rt;
    rt.epochs = 3;
    WallTimer retrain_timer;
    QCFE_CHECK_OK(f.trainer->Retrain(f.drifted, rt, nullptr));
    QCFE_CHECK_OK(f.trainer->Save(path));
    retrain_save_ms += 1e3 * retrain_timer.Seconds();

    SwapOptions options;
    options.probe.assign(f.test.begin(), f.test.begin() + 8);
    options.expected = f.trainer->PredictBatch(options.probe).value();
    WallTimer swap_timer;
    QCFE_CHECK(LoadAndSwap(f.ctx->db.get(), &f.ctx->envs, &f.ctx->templates,
                           path, options, &models, server.get())
                   .ok(),
               "adapt bench publish failed");
    swap_ms += 1e3 * swap_timer.Seconds();

    stop.store(true);
    for (std::thread& t : callers) t.join();
  }
  state.counters["retrain_save_ms"] =
      benchmark::Counter(retrain_save_ms, benchmark::Counter::kAvgIterations);
  state.counters["swap_ms"] =
      benchmark::Counter(swap_ms, benchmark::Counter::kAvgIterations);
  server->Shutdown();
  (void)Fs::Default()->RemoveFile(path);  // best-effort temp cleanup
}
BENCHMARK(BM_AdaptRetrainSwap)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_SnapshotFit(benchmark::State& state) {
  Rng rng(7);
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 2000; ++i) {
    OperatorObservation o;
    o.op = static_cast<OpType>(i % kNumOpTypes);
    o.n = rng.Uniform(10, 100000);
    o.n2 = rng.Uniform(10, 1000);
    o.ms = 0.001 * o.n + 0.1;
    obs.push_back(o);
  }
  for (auto _ : state) {
    auto snap = FeatureSnapshot::Fit(obs);
    benchmark::DoNotOptimize(snap.ok());
  }
}
BENCHMARK(BM_SnapshotFit);

void BM_DiffPropReduction(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kDiffProp;
  cfg.num_references = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto r = ReduceFeatures(*f.qpp, f.train, cfg);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_DiffPropReduction)->Arg(16)->Arg(64);

// ------------------------------------------------------------ smoke gate

/// End-to-end kernel parity sweep without google-benchmark, once per ISA
/// tier available on this machine: every tier slot over the real-shape
/// table plus edge shapes against the reference loops and against every
/// other slot computing the same product, the segmented accumulates
/// against one one-segment call per segment, and a short training loop
/// against its per-tier pinned weights. Returns false on any violation. This is what
/// CI runs as `bench_micro --smoke`.
bool RunKernelSmoke() {
  using kernels::KernelIsa;
  using kernels::internal::Epilogue;
  size_t checks = 0;
  size_t failures = 0;
  auto expect_equal = [&](const Matrix& want, const Matrix& got,
                          const char* what) {
    ++checks;
    if (want.rows() != got.rows() || want.cols() != got.cols()) {
      std::cerr << "smoke: " << what << " shape mismatch\n";
      ++failures;
      return;
    }
    for (size_t i = 0; i < want.data().size(); ++i) {
      if (want.data()[i] != got.data()[i]) {
        std::cerr << "smoke: " << what << " bit mismatch at flat index " << i
                  << "\n";
        ++failures;
        return;
      }
    }
  };
  // The SIMD-tier gate: per-element error relative to max(|want|, 1), at
  // the documented cross-tier tolerance; tracks the tier's worst element.
  auto expect_close = [&](const Matrix& want, const Matrix& got,
                          const char* what, double* worst) {
    ++checks;
    if (want.rows() != got.rows() || want.cols() != got.cols()) {
      std::cerr << "smoke: " << what << " shape mismatch\n";
      ++failures;
      return;
    }
    double rel = 0.0;
    for (size_t r = 0; r < want.rows(); ++r) {
      for (size_t c = 0; c < want.cols(); ++c) {
        const double w = want.At(r, c);
        const double g = got.At(r, c);
        const double denom = std::abs(w) > 1.0 ? std::abs(w) : 1.0;
        const double e = std::abs(g - w) / denom;
        if (e > rel) rel = e;
      }
    }
    if (rel > kernels::kSimdRelTolerance) {
      std::cerr << "smoke: " << what << " relative error " << rel
                << " exceeds tolerance " << kernels::kSimdRelTolerance << "\n";
      ++failures;
      return;
    }
    if (rel > *worst) *worst = rel;
  };

  struct EdgeShape {
    size_t m, k, n;
    double sparsity;
  };
  std::vector<EdgeShape> shapes = {{0, 3, 4, 0.0}, {1, 1, 1, 0.0},
                                   {5, 9, 17, 0.5}, {13, 17, 11, 0.9},
                                   {8, 6, 8, 1.0}};
  for (const KernelShape& s : kKernelShapes) {
    shapes.push_back({s.m, s.k, s.n, s.sparsity});
  }
  // One tier's slots against the reference loops (bit gate when `worst` is
  // null, the scalar tier; tolerance gate otherwise) and against each other
  // (bit gate on every tier).
  auto sweep = [&](KernelIsa isa, double* worst) {
    const kernels::internal::KernelTable& t =
        kernels::internal::TableFor(isa);
    kernels::ScopedKernelIsa tier(isa);
    auto gate = [&](const Matrix& want, const Matrix& got, const char* what) {
      worst ? expect_close(want, got, what, worst)
            : expect_equal(want, got, what);
    };
    Rng rng(53);
    for (const EdgeShape& s : shapes) {
      Matrix a = RandomWithSparsity(s.m, s.k, s.sparsity, &rng);
      Matrix b = RandomWithSparsity(s.k, s.n, 0.0, &rng);
      Matrix bias = RandomWithSparsity(1, s.n, 0.0, &rng);
      Matrix at_a = RandomWithSparsity(s.k, s.m, s.sparsity, &rng);
      Matrix bt_b = RandomWithSparsity(s.n, s.k, 0.0, &rng);
      Matrix acc_seed = RandomWithSparsity(s.m, s.n, 0.0, &rng);
      Matrix want, panel, other;
      kernels::reference::GemmNNBias(a, b, bias, &want);
      t.dense_nn(a, b, &bias, &panel, Epilogue::kBias);
      t.sparse_nn(a, b, &other);
      kernels::internal::BiasPass(bias, &other);
      gate(want, panel, "dense_nn bias");
      expect_equal(panel, other, "sparse_nn vs dense_nn bias");
      kernels::reference::GemmNNBiasRelu(a, b, bias, &want);
      t.dense_nn(a, b, &bias, &panel, Epilogue::kBiasRelu);
      kernels::GemmNNBiasRelu(a, b, bias, &other);
      gate(want, panel, "dense_nn bias+relu");
      expect_equal(panel, other, "GemmNNBiasRelu vs dense_nn");
      kernels::reference::GemmBT(a, bt_b, &want);
      t.bt(a, bt_b, &panel);
      gate(want, panel, "bt");
      kernels::reference::GemmAT(at_a, b, &want);
      t.at_panel(at_a, b, &panel);
      t.at_stream(at_a, b, &other);
      gate(want, panel, "at_panel");
      expect_equal(panel, other, "at_stream vs at_panel");
      want = acc_seed;
      panel = acc_seed;
      kernels::reference::GemmATAccumulate(at_a, b, &want);
      const size_t whole[2] = {0, s.k};
      t.at_acc_panel(at_a, b, whole, 1, 0, s.m, &panel);
      gate(want, panel, "at_acc_panel");
      // Segmented accumulates, bit-gated in every tier: one one-segment
      // accumulate per segment into a zeroed temporary, then in-order
      // Adds. Segments include an empty and a one-row one.
      const size_t k = s.k;
      const std::vector<size_t> bounds = {0, k / 3, k / 3, k / 2,
                                          std::min(k, k / 2 + 1), k};
      Matrix bias_seed = RandomWithSparsity(1, s.n, 0.0, &rng);
      Matrix want_w = acc_seed;
      Matrix want_b = bias_seed;
      for (size_t g = 0; g + 1 < bounds.size(); ++g) {
        std::vector<size_t> rows;
        for (size_t r = bounds[g]; r < bounds[g + 1]; ++r) rows.push_back(r);
        const std::vector<size_t> one = {0, rows.size()};
        Matrix part_w(s.m, s.n), part_b(1, s.n);
        kernels::GemmATAccumulateSegments(at_a.SelectRows(rows),
                                          b.SelectRows(rows), one, &part_w);
        kernels::ColSumAccumulateSegments(b.SelectRows(rows), one, &part_b);
        want_w.Add(part_w);
        want_b.Add(part_b);
      }
      Matrix got_w = acc_seed;
      Matrix got_b = bias_seed;
      kernels::GemmATAccumulateSegments(at_a, b, bounds, &got_w);
      kernels::ColSumAccumulateSegments(b, bounds, &got_b);
      expect_equal(want_w, got_w, "GemmATAccumulateSegments");
      expect_equal(want_b, got_b, "ColSumAccumulateSegments");
    }
  };

  // Training loop: CRC-32 of the weights after 10 Adam steps, pinned per
  // tier (captured when the scalar pin still matched the historical
  // reference loops and every dispatch pin gave each tier's bits).
  auto train_crc = [](KernelIsa isa) {
    kernels::ScopedKernelIsa tier(isa);
    Rng net_rng(59);
    Mlp net({11, 16, 1}, Activation::kRelu, &net_rng);
    AdamOptimizer opt(net.Params(), net.Grads(), 1e-2);
    Matrix x(20, 11);
    x.RandomizeGaussian(&net_rng, 1.0);
    Mlp::Tape tape;
    const std::vector<size_t> whole = {0, x.rows()};
    for (int step = 0; step < 10; ++step) {
      opt.ZeroGrad();
      const Matrix& out = net.Forward(x, &tape);
      Matrix grad(out.rows(), 1);
      for (size_t r = 0; r < grad.rows(); ++r) {
        grad.At(r, 0) = out.At(r, 0) - 1.0;
      }
      net.Backward(grad, &tape);
      std::vector<Matrix*> grads = net.Grads();
      for (size_t s = 0; s < grads.size(); ++s) {
        net.AddParamGrad(s, tape, whole, grads[s]);
      }
      QCFE_CHECK_OK(opt.Step());
    }
    std::vector<double> flat;
    for (Matrix* p : net.Params()) {
      for (double v : p->data()) flat.push_back(v);
    }
    return Crc32(flat.data(), flat.size() * sizeof(double));
  };
  const struct {
    KernelIsa isa;
    uint32_t train_crc;
  } tiers[] = {
      {KernelIsa::kScalar, 0x58B80DFCu},
      {KernelIsa::kAvx2, 0x9B0FA7C0u},
  };
  for (const auto& tier : tiers) {
    if (!kernels::KernelIsaAvailable(tier.isa)) continue;
    const bool scalar = tier.isa == KernelIsa::kScalar;
    double worst = 0.0;
    sweep(tier.isa, scalar ? nullptr : &worst);
    ++checks;
    if (train_crc(tier.isa) != tier.train_crc) {
      std::cerr << "smoke: training moved off its pinned weights on the "
                << kernels::KernelIsaName(tier.isa) << " tier\n";
      ++failures;
    }
    std::cout << "kernel smoke [" << kernels::KernelIsaName(tier.isa) << "]: ";
    if (scalar) {
      std::cout << "bit-exact against reference\n";
    } else {
      std::cout << "max relative error " << worst << " (tolerance "
                << kernels::kSimdRelTolerance << ")\n";
    }
  }

  std::cout << "kernel smoke: " << (checks - failures) << "/" << checks
            << " checks passed\n";
  return failures == 0;
}

// ------------------------------------------------------- persistence gate

/// Save -> Load -> PredictBatch bit-parity on a freshly fitted pipeline,
/// plus a typed-corruption rejection check. Runs as the second half of
/// `bench_micro --smoke`, so CI gates the persistence layer in the same
/// binary that gates kernel parity.
bool RunPersistSmoke() {
  HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
  opt.corpus_size = 120;
  opt.num_envs = 2;
  auto ctx = BenchmarkContext::Create(opt);
  if (!ctx.ok()) {
    std::cerr << "persist smoke: " << ctx.status().ToString() << "\n";
    return false;
  }
  std::vector<PlanSample> train, test;
  (*ctx)->Split(120, &train, &test);
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.pre_reduction_epochs = 2;
  cfg.train.epochs = 3;
  auto pipeline = (*ctx)->FitPipeline(cfg, train);
  if (!pipeline.ok()) {
    std::cerr << "persist smoke: " << pipeline.status().ToString() << "\n";
    return false;
  }

  Fs* fs = Fs::Default();
  const std::string path = "/tmp/qcfe_bench_smoke.qcfa";
  bool ok = true;
  if (Status s = (*pipeline)->Save(path); !s.ok()) {
    std::cerr << "persist smoke: " << s.ToString() << "\n";
    return false;
  }
  auto loaded = Pipeline::Load((*ctx)->db.get(), &(*ctx)->envs,
                               &(*ctx)->templates, path);
  if (!loaded.ok()) {
    std::cerr << "persist smoke: " << loaded.status().ToString() << "\n";
    ok = false;
  } else {
    auto want = (*pipeline)->PredictBatch(test);
    auto got = (*loaded)->PredictBatch(test);
    if (!want.ok() || !got.ok() || want->size() != got->size() ||
        std::memcmp(want->data(), got->data(),
                    want->size() * sizeof(double)) != 0) {
      std::cerr << "persist smoke: loaded pipeline is not bit-identical\n";
      ok = false;
    }
  }

  // Corruption must be rejected with a typed status, never served.
  if (auto bytes = fs->ReadFile(path); bytes.ok()) {
    std::string damaged = *bytes;
    damaged[damaged.size() / 2] ^= 0x01;
    QCFE_CHECK_OK(AtomicWriteFile(fs, path, damaged));
    auto rejected = Pipeline::Load((*ctx)->db.get(), &(*ctx)->envs,
                                   &(*ctx)->templates, path);
    if (rejected.ok() ||
        rejected.status().code() != StatusCode::kDataLoss) {
      std::cerr << "persist smoke: corrupted artifact not rejected as "
                   "DataLoss\n";
      ok = false;
    }
  } else {
    std::cerr << "persist smoke: " << bytes.status().ToString() << "\n";
    ok = false;
  }
  // Best-effort temp cleanup; the gate result is what matters.
  (void)fs->RemoveFile(path);
  if (ok) {
    std::cout << "persist smoke: save/load round trip bit-exact; corrupted "
                 "artifact rejected (DataLoss)\n";
  }
  return ok;
}

// ---------------------------------------------------- drift-detector gate

/// Sanity gate on the pure drift predicate (adapt/drift_detector.h): a
/// clearly drifted q-error window must trip, a stable one must not, and a
/// window below min_samples must never trip no matter how bad it looks.
/// Runs as the third leg of `bench_micro --smoke` so CI catches a
/// miscalibrated detector before it can flap production retrains.
bool RunAdaptSmoke() {
  adapt::DriftConfig cfg;  // stock thresholds, exactly what servers deploy
  bool ok = true;

  std::vector<double> stable;
  for (size_t i = 0; i < 64; ++i) stable.push_back(i % 2 == 0 ? 1.05 : 1.35);
  if (adapt::DetectDrift(stable, 1.2, cfg).drifted) {
    std::cerr << "adapt smoke: stable window tripped the detector\n";
    ok = false;
  }

  std::vector<double> drifted(64, 4.0);
  adapt::DriftVerdict v = adapt::DetectDrift(drifted, 1.2, cfg);
  if (!v.drifted || !v.mean_trip) {
    std::cerr << "adapt smoke: 4x-degraded window did not trip (mean "
              << v.window_mean_qerror << " vs baseline "
              << v.baseline_mean_qerror << ")\n";
    ok = false;
  }

  std::vector<double> premature(cfg.min_samples - 1, 100.0);
  if (adapt::DetectDrift(premature, 1.0, cfg).drifted) {
    std::cerr << "adapt smoke: tripped below min_samples\n";
    ok = false;
  }

  if (ok) {
    std::cout << "adapt smoke: drift detector trips on degraded windows, "
                 "stays quiet on stable and short ones\n";
  }
  return ok;
}

}  // namespace
}  // namespace qcfe

/// BENCHMARK_MAIN, except that `--smoke` runs the kernel, persistence and
/// drift-detector gates instead of benchmarks.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      const bool kernels_ok = qcfe::RunKernelSmoke();
      const bool persist_ok = qcfe::RunPersistSmoke();
      const bool adapt_ok = qcfe::RunAdaptSmoke();
      return kernels_ok && persist_ok && adapt_ok ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
