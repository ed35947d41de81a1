#include "workload/joblight.h"

#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace qcfe {

namespace {

struct Satellite {
  const char* table;
  const char* extra_col;   // the filterable attribute
  int64_t extra_max;       // attribute domain [1, extra_max]
  double base_rows;        // rows at scale_factor 1
};

const Satellite kSatellites[] = {
    {"cast_info", "role_id", 11, 140000},
    {"movie_info", "info_type_id", 110, 100000},
    {"movie_keyword", "keyword_id", 1000, 80000},
    {"movie_companies", "company_type_id", 4, 50000},
    {"movie_info_idx", "info_type_id", 110, 30000},
};

constexpr double kTitleBaseRows = 40000;

}  // namespace

std::unique_ptr<Database> JobLightBenchmark::BuildDatabase(
    double scale_factor, uint64_t seed) const {
  auto db = std::make_unique<Database>("joblight");
  Rng rng(seed);

  int64_t n_title = static_cast<int64_t>(
      std::max(100.0, kTitleBaseRows * scale_factor));
  auto title = std::make_unique<Table>(
      "title", Schema({{"id", DataType::kInt64},
                       {"kind_id", DataType::kInt64},
                       {"production_year", DataType::kInt64}}));
  const ZipfTable kind_dist(7, 1.0);
  for (int64_t i = 0; i < n_title; ++i) {
    // Production years skew recent, like IMDB.
    int64_t year = 2019 - static_cast<int64_t>(
                              std::floor(std::pow(rng.Uniform(), 2.2) * 110));
    QCFE_CHECK_OK(title->AppendRow(
        {Value(i), Value(kind_dist.Sample(&rng)), Value(year)}));
  }
  QCFE_CHECK_OK(title->BuildIndex("id"));
  QCFE_CHECK_OK(db->catalog()->AddTable(std::move(title)));

  // Popular movies accumulate more facts: Zipf over title ids.
  const ZipfTable movie_dist(n_title, 0.6);
  for (const Satellite& sat : kSatellites) {
    int64_t n = static_cast<int64_t>(
        std::max(200.0, sat.base_rows * scale_factor));
    auto table = std::make_unique<Table>(
        sat.table, Schema({{"id", DataType::kInt64},
                           {"movie_id", DataType::kInt64},
                           {sat.extra_col, DataType::kInt64}}));
    const ZipfTable extra_dist(sat.extra_max, 0.9);
    for (int64_t i = 0; i < n; ++i) {
      int64_t movie = movie_dist.Sample(&rng) - 1;
      QCFE_CHECK_OK(table->AppendRow(
          {Value(i), Value(movie), Value(extra_dist.Sample(&rng))}));
    }
    QCFE_CHECK_OK(table->BuildIndex("movie_id"));
    QCFE_CHECK_OK(db->catalog()->AddTable(std::move(table)));
  }

  db->Analyze();
  return db;
}

std::vector<QueryTemplate> JobLightBenchmark::Templates() const {
  // 70 deterministic templates of the job-light shape:
  //   SELECT COUNT(*) FROM title t, sat1, ... WHERE joins AND preds.
  std::vector<QueryTemplate> out;
  Rng rng(20240601);  // fixed: the template set is part of the workload
  const size_t kNumTemplates = 70;
  for (size_t qi = 0; qi < kNumTemplates; ++qi) {
    int n_sats = static_cast<int>(rng.UniformInt(1, 4));
    // Choose distinct satellites.
    std::vector<int> sel;
    while (static_cast<int>(sel.size()) < n_sats) {
      int cand = static_cast<int>(rng.UniformInt(0, 4));
      bool dup = false;
      for (int s : sel) dup |= (s == cand);
      if (!dup) sel.push_back(cand);
    }

    std::vector<std::string> from = {"title"};
    std::vector<std::string> conds;
    for (int s : sel) {
      from.push_back(kSatellites[s].table);
      conds.push_back(std::string(kSatellites[s].table) +
                      ".movie_id = title.id");
    }
    // Predicates: always at least one on title; optionally on satellites.
    int title_pred = static_cast<int>(rng.UniformInt(0, 2));
    if (title_pred == 0) {
      conds.push_back("title.production_year > {title.production_year}");
    } else if (title_pred == 1) {
      conds.push_back("title.kind_id = {title.kind_id}");
    } else {
      conds.push_back(
          "title.production_year between {title.production_year} and "
          "{title.production_year+15}");
    }
    for (int s : sel) {
      if (rng.Bernoulli(0.55)) {
        conds.push_back(std::string(kSatellites[s].table) + "." +
                        kSatellites[s].extra_col + " = {" +
                        kSatellites[s].table + "." + kSatellites[s].extra_col +
                        "}");
      }
    }

    QueryTemplate t;
    t.name = "jl" + std::to_string(qi + 1);
    t.text = "select count(*) from " + Join(from, ", ") + " where " +
             Join(conds, " and ");
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace qcfe
