#include "workload/sysbench.h"

#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace qcfe {

std::unique_ptr<Database> SysbenchBenchmark::BuildDatabase(
    double scale_factor, uint64_t seed) const {
  auto db = std::make_unique<Database>("sysbench");
  Rng rng(seed);
  int64_t n = static_cast<int64_t>(std::max(1000.0, 100000.0 * scale_factor));

  auto sbtest = std::make_unique<Table>(
      "sbtest1", Schema({{"id", DataType::kInt64},
                         {"k", DataType::kInt64},
                         {"c", DataType::kString},
                         {"pad", DataType::kString}}));
  const ZipfTable k_dist(n, 0.5);
  for (int64_t i = 1; i <= n; ++i) {
    QCFE_CHECK_OK(sbtest->AppendRow({Value(i), Value(k_dist.Sample(&rng)),
                             Value(rng.RandomString(16)),
                             Value(rng.RandomString(12))}));
  }
  QCFE_CHECK_OK(sbtest->BuildIndex("id"));
  QCFE_CHECK_OK(sbtest->BuildIndex("k"));
  QCFE_CHECK_OK(db->catalog()->AddTable(std::move(sbtest)));
  db->Analyze();
  return db;
}

std::vector<QueryTemplate> SysbenchBenchmark::Templates() const {
  // The five read statements of oltp_read_only.lua.
  std::vector<QueryTemplate> t;
  t.push_back({"point_select",
               "select sbtest1.c from sbtest1 where sbtest1.id = {sbtest1.id}"});
  t.push_back({"simple_range",
               "select sbtest1.c from sbtest1 where sbtest1.id between "
               "{sbtest1.id} and {sbtest1.id+99}"});
  t.push_back({"sum_range",
               "select sum(sbtest1.k) from sbtest1 where sbtest1.id between "
               "{sbtest1.id} and {sbtest1.id+99}"});
  t.push_back({"order_range",
               "select sbtest1.c from sbtest1 where sbtest1.id between "
               "{sbtest1.id} and {sbtest1.id+99} order by sbtest1.c"});
  t.push_back({"distinct_range",
               "select distinct sbtest1.c from sbtest1 where sbtest1.id "
               "between {sbtest1.id} and {sbtest1.id+99} order by sbtest1.c"});
  return t;
}

}  // namespace qcfe
