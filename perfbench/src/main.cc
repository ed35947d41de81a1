/// perfbench: the repository benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --work-dir <dir> [--git-sha <sha>] [--src-digest <hex>]
///
/// Runs the setup -> fit -> serve -> adapt lifecycle of one workload,
/// prints every metric by name with its unit, checks that outputs are
/// correct, and prints one JSON result as its last line: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
/// non-zero on any correctness violation. Usually driven by
/// perfbench/run.py, which builds it first.

#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "nn/kernels.h"
#include "perfbench.h"
#include "trace.h"

#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<Regime>& Regimes() {
  static const std::vector<Regime> regimes = {
      // TPC-H deep plans; serving draws from every corpus query, so request
      // dedup is bypassed and featurize + forward do the serving work.
      {"tpch-distinct", "tpch", 0, 40000},
      // sysbench shallow plans from a 64-plan hot set: dedup collapses
      // micro-batches, so per-request service is cheap.
      {"sysbench-hot64", "sysbench", 64, 200000},
  };
  return regimes;
}

namespace {

struct Args {
  Options options;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->options.workload = value;
    } else if (key == "--seed") {
      args->options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->options.trace = value == "1";
    } else if (key == "--work-dir") {
      args->options.work_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--src-digest") {
      args->src_digest = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "arguments come in --key value pairs\n");
    return false;
  }
  return !args->options.workload.empty() && !args->options.work_dir.empty() &&
         args->options.seconds > 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(metrics[i].name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--git-sha <sha>] "
                 "[--src-digest <hex>]\n");
    return 2;
  }
  const Options& options = args.options;
  const Regime* regime = nullptr;
  for (const Regime& r : Regimes()) {
    if (r.name == options.workload) regime = &r;
  }
  if (regime == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  // The generator sleeps until each request is due; a 1 ns timer slack
  // keeps the kernel from batching those wake-ups 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  char provenance[1024];
  std::snprintf(
      provenance, sizeof provenance,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"kernel_isa\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"src_digest\": \"%s\"}",
      JsonEscape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      qcfe::kernels::KernelIsaName(qcfe::kernels::GetKernelIsa()),
      PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE,
      JsonEscape(args.git_sha).c_str(), JsonEscape(args.src_digest).c_str());
  std::printf("provenance %s\n", provenance);

  Tracer tracer(options.trace);
  Report report;
  const bool ran = RunLifecycle(options, *regime, &tracer, &report);
  for (const Metric& m : report.end_to_end) {
    std::printf("e2e   %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : report.per_layer) {
    std::printf("layer %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("requests attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: the %s lifecycle did not complete\n",
                 options.workload.c_str());
    return 1;
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (tracer.WriteJson(path, provenance)) {
      std::printf("trace written to %s (%llu spans)\n", path.c_str(),
                  static_cast<unsigned long long>(tracer.num_spans()));
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    }
  }
  const std::vector<Metric>& metrics =
      options.trace ? report.per_layer : report.end_to_end;
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  if (!finite) report.Violation("a metric is not a finite number");
  const bool correct = report.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}
