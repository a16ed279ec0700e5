// Pins FeatureExtractor::Extract, stats::ComputeMoments,
// Column::CountDistinct and Dataset::JoinCorrelation to the multi-pass
// implementation they replaced, bit for bit. The namespace `ref` below
// keeps a verbatim copy of that implementation: every statistic
// recomputes the mean and SD it needs over an int -> double copy of the
// column, the pair block computes both triangles, and distinct values go
// through hash sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <vector>

#include "data/generator.h"
#include "featgraph/featgraph.h"
#include "util/rng.h"
#include "util/stats.h"

namespace autoce::featgraph {
namespace {

namespace ref {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size()));
}

double Skewness(const std::vector<double>& v) {
  if (v.size() < 3) return 0.0;
  double m = Mean(v);
  double sd = StdDev(v);
  if (sd < 1e-12) return 0.0;
  double s = 0.0;
  for (double x : v) {
    double z = (x - m) / sd;
    s += z * z * z;
  }
  return s / static_cast<double>(v.size());
}

double Kurtosis(const std::vector<double>& v) {
  if (v.size() < 4) return 0.0;
  double m = Mean(v);
  double sd = StdDev(v);
  if (sd < 1e-12) return 0.0;
  double s = 0.0;
  for (double x : v) {
    double z = (x - m) / sd;
    s += z * z * z * z;
  }
  return s / static_cast<double>(v.size()) - 3.0;
}

double PositionalMatchRatio(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++matches;
  }
  return static_cast<double>(matches) / static_cast<double>(a.size());
}

int64_t CountDistinct(const data::Column& c) {
  std::unordered_set<int32_t> s(c.values.begin(), c.values.end());
  return static_cast<int64_t>(s.size());
}

int32_t MinValue(const data::Column& c) {
  if (c.values.empty()) return 0;
  return *std::min_element(c.values.begin(), c.values.end());
}

int32_t MaxValue(const data::Column& c) {
  if (c.values.empty()) return 0;
  return *std::max_element(c.values.begin(), c.values.end());
}

double JoinCorrelation(const data::Dataset& ds, const data::ForeignKey& fk) {
  const data::Column& fk_col =
      ds.table(fk.fk_table).columns[static_cast<size_t>(fk.fk_column)];
  const data::Column& pk_col =
      ds.table(fk.pk_table).columns[static_cast<size_t>(fk.pk_column)];
  std::unordered_set<int32_t> fk_set(fk_col.values.begin(),
                                     fk_col.values.end());
  std::unordered_set<int32_t> pk_set(pk_col.values.begin(),
                                     pk_col.values.end());
  if (pk_set.empty()) return 0.0;
  int64_t hits = 0;
  for (int32_t v : fk_set) hits += pk_set.count(v);
  return static_cast<double>(hits) / static_cast<double>(pk_set.size());
}

double SquashLog10(double v, double scale) {
  return std::clamp(std::log10(std::max(v, 1.0)) / scale, 0.0, 1.5);
}

double SquashSymmetric(double v, double scale) {
  return std::clamp(v / scale, -1.5, 1.5);
}

FeatureGraph Extract(const FeatureGraphConfig& config,
                     const data::Dataset& dataset) {
  const int m = config.max_columns;
  const int k = FeatureGraphConfig::kFeaturesPerColumn;
  const int dim = config.VertexDim();
  const int n = dataset.NumTables();

  FeatureGraph graph;
  graph.dataset_name = dataset.name();
  graph.vertices = nn::Matrix(static_cast<size_t>(n),
                              static_cast<size_t>(dim), 0.0);
  graph.edges =
      nn::Matrix(static_cast<size_t>(n), static_cast<size_t>(n), 0.0);

  for (int t = 0; t < n; ++t) {
    const data::Table& table = dataset.table(t);
    int cols = std::min(table.NumColumns(), m);

    std::vector<std::vector<double>> numeric(static_cast<size_t>(cols));
    for (int c = 0; c < cols; ++c) {
      const data::Column& col = table.columns[static_cast<size_t>(c)];
      numeric[static_cast<size_t>(c)].assign(col.values.begin(),
                                             col.values.end());
      const auto& v = numeric[static_cast<size_t>(c)];
      double domain = static_cast<double>(std::max<int32_t>(1, col.domain_size));
      double range = static_cast<double>(MaxValue(col) - MinValue(col) + 1);
      size_t base = static_cast<size_t>(c * k);
      graph.vertices(static_cast<size_t>(t), base + 0) =
          SquashSymmetric(Skewness(v), 10.0);
      graph.vertices(static_cast<size_t>(t), base + 1) =
          SquashSymmetric(Kurtosis(v), 20.0);
      graph.vertices(static_cast<size_t>(t), base + 2) =
          SquashLog10(domain, 6.0);
      graph.vertices(static_cast<size_t>(t), base + 3) =
          SquashLog10(range, 6.0);
      graph.vertices(static_cast<size_t>(t), base + 4) =
          std::clamp(StdDev(v) / domain, 0.0, 1.0);
      graph.vertices(static_cast<size_t>(t), base + 5) =
          std::clamp(Mean(v) / domain, 0.0, 1.0);
    }

    size_t corr_base = static_cast<size_t>(k * m);
    for (int a = 0; a < cols; ++a) {
      for (int b = 0; b < cols; ++b) {
        double corr =
            (a == b) ? 1.0
                     : PositionalMatchRatio(
                           table.columns[static_cast<size_t>(a)].values,
                           table.columns[static_cast<size_t>(b)].values);
        graph.vertices(static_cast<size_t>(t),
                       corr_base + static_cast<size_t>(a * m + b)) = corr;
      }
    }

    size_t tail = static_cast<size_t>((k + m) * m);
    graph.vertices(static_cast<size_t>(t), tail + 0) =
        SquashLog10(static_cast<double>(table.NumRows()), 7.0);
    graph.vertices(static_cast<size_t>(t), tail + 1) =
        std::min(1.5, static_cast<double>(table.NumColumns()) /
                          static_cast<double>(m));
  }

  for (const auto& fk : dataset.foreign_keys()) {
    double jc = JoinCorrelation(dataset, fk);
    graph.edges(static_cast<size_t>(fk.pk_table),
                static_cast<size_t>(fk.fk_table)) = jc;
    graph.edges(static_cast<size_t>(fk.fk_table),
                static_cast<size_t>(fk.pk_table)) = jc;
  }
  return graph;
}

}  // namespace ref

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameBits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Extract, every column's CountDistinct and every FK's JoinCorrelation
/// equal the reference bit for bit.
void ExpectMatchesReference(const data::Dataset& ds,
                            const FeatureGraphConfig& config = {}) {
  FeatureGraph got = FeatureExtractor(config).Extract(ds);
  FeatureGraph want = ref::Extract(config, ds);
  EXPECT_TRUE(SameBits(got.vertices, want.vertices)) << ds.name();
  EXPECT_TRUE(SameBits(got.edges, want.edges)) << ds.name();
  for (const data::Table& t : ds.tables()) {
    for (const data::Column& c : t.columns) {
      EXPECT_EQ(c.CountDistinct(), ref::CountDistinct(c)) << c.name;
    }
  }
  for (const data::ForeignKey& fk : ds.foreign_keys()) {
    EXPECT_TRUE(SameBits(ds.JoinCorrelation(fk), ref::JoinCorrelation(ds, fk)))
        << ds.name();
  }
}

/// ComputeMoments (both overloads) and the double Skewness/Kurtosis
/// equal the reference statistics bit for bit.
void ExpectMomentsMatch(const std::vector<double>& v) {
  const stats::Moments mo = stats::ComputeMoments(v);
  EXPECT_TRUE(SameBits(mo.mean, ref::Mean(v)));
  EXPECT_TRUE(SameBits(mo.stddev, ref::StdDev(v)));
  EXPECT_TRUE(SameBits(mo.skewness, ref::Skewness(v)));
  EXPECT_TRUE(SameBits(mo.kurtosis, ref::Kurtosis(v)));
  EXPECT_TRUE(SameBits(stats::Skewness(v), ref::Skewness(v)));
  EXPECT_TRUE(SameBits(stats::Kurtosis(v), ref::Kurtosis(v)));
}

data::Column MakeColumn(std::string name, std::vector<int32_t> values,
                        int32_t domain) {
  data::Column c;
  c.name = std::move(name);
  c.values = std::move(values);
  c.domain_size = domain;
  return c;
}

constexpr int32_t kMax = std::numeric_limits<int32_t>::max();

/// The adversarial columns, each as its own one-column table (tables may
/// differ in length) and as int32 moments.
std::vector<data::Column> AdversarialColumns() {
  std::vector<data::Column> cols;
  cols.push_back(MakeColumn("constant", std::vector<int32_t>(1000, 42), 50));
  cols.push_back(MakeColumn("single_row", {7}, 10));
  cols.push_back(MakeColumn("two_rows", {1, 9}, 10));
  cols.push_back(MakeColumn("three_rows", {1, 2, 9}, 10));
  cols.push_back(MakeColumn("four_rows", {1, 2, 3, 10}, 10));
  cols.push_back(MakeColumn("one_distinct_max", {kMax, kMax, kMax}, kMax));
  cols.push_back(MakeColumn("at_domain", {100, 1, 100, 100, 37, 100}, 100));
  cols.push_back(MakeColumn("int32_max", {kMax, 1, kMax - 1, 2, kMax}, kMax));
  cols.push_back(MakeColumn("one_outlier",
                            [] {
                              std::vector<int32_t> v(4096, 5);
                              v[17] = 6;
                              return v;
                            }(),
                            6));
  cols.push_back(MakeColumn("empty", {}, 3));
  return cols;
}

TEST(ExtractReferenceTest, AdversarialColumnsMatchBitForBit) {
  for (const data::Column& c : AdversarialColumns()) {
    std::vector<double> as_double(c.values.begin(), c.values.end());
    ExpectMomentsMatch(as_double);
    const stats::Moments mo = stats::ComputeMoments(c.values);
    EXPECT_TRUE(SameBits(mo.mean, ref::Mean(as_double))) << c.name;
    EXPECT_TRUE(SameBits(mo.stddev, ref::StdDev(as_double))) << c.name;
    EXPECT_TRUE(SameBits(mo.skewness, ref::Skewness(as_double))) << c.name;
    EXPECT_TRUE(SameBits(mo.kurtosis, ref::Kurtosis(as_double))) << c.name;
    EXPECT_EQ(mo.min, static_cast<double>(ref::MinValue(c))) << c.name;
    EXPECT_EQ(mo.max, static_cast<double>(ref::MaxValue(c))) << c.name;

    data::Dataset ds(c.name);
    data::Table t;
    t.name = c.name;
    t.columns = {c};
    ds.AddTable(t);
    ExpectMatchesReference(ds);
  }

  // All of them side by side in one table, with the pair block
  // truncated (max_columns 4) and not (max_columns 16). Columns of
  // unequal length give a positional ratio of 0 both ways.
  data::Dataset wide("wide");
  data::Table t;
  t.name = "wide";
  t.columns = AdversarialColumns();
  wide.AddTable(t);
  ExpectMatchesReference(wide, FeatureGraphConfig{4});
  ExpectMatchesReference(wide, FeatureGraphConfig{16});
}

TEST(ExtractReferenceTest, StdDevNearTheGuardMatchesBitForBit) {
  // Integer columns never have 0 < SD < 1e-12, so the guard's edge is
  // pinned through the double overload: alternating c +/- d has SD
  // exactly |d| up to rounding, on both sides of 1e-12.
  for (double c : {0.0, 1.0, 1e-3}) {
    for (double d : {0.5e-12, 0.999e-12, 1e-12, 1.001e-12, 2e-12}) {
      for (size_t n : {2u, 3u, 4u, 5u, 64u}) {
        std::vector<double> v;
        for (size_t i = 0; i < n; ++i) v.push_back(i % 2 ? c + d : c - d);
        ExpectMomentsMatch(v);
      }
    }
  }
  // Two values whose midpoint rounds: the deviations are not exact
  // negatives, so only the n < 3 guard keeps the skewness at 0.
  ExpectMomentsMatch({0.1, 0.7});
  ExpectMomentsMatch({1e16, 3.0});
  ExpectMomentsMatch({1.0 / 3.0, 2.0 / 7.0});
}

TEST(ExtractReferenceTest, JoinCorrelationDenseAndSparseKeys) {
  // Dense keys take the bitmap, sparse keys (a few rows spread over the
  // int32 range) the sorted copy; FK values missing from the PK and
  // repeated FK values count once or not at all.
  struct Case {
    std::vector<int32_t> pk, fk;
  };
  const std::vector<Case> cases = {
      {{1, 2, 3, 4, 5, 6, 7, 8}, {2, 2, 3, 8, 8, 8}},
      {{1, 5, 9, kMax}, {5, 5, 9, 2, kMax, 1000}},
      {{kMax - 2, kMax - 1, kMax}, {kMax, kMax, 1}},
      {{3}, {1, 2}},
      {{1, 2, 3}, {}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    data::Dataset ds("join_" + std::to_string(i));
    data::Table pk_t, fk_t;
    pk_t.name = "pk";
    pk_t.columns = {MakeColumn("id", cases[i].pk, kMax)};
    pk_t.primary_key = 0;
    fk_t.name = "fk";
    fk_t.columns = {MakeColumn("ref", cases[i].fk, kMax)};
    ds.AddTable(pk_t);
    ds.AddTable(fk_t);
    ASSERT_TRUE(ds.AddForeignKey({1, 0, 0, 0}).ok());
    ExpectMatchesReference(ds);
  }
}

TEST(ExtractReferenceTest, GeneratorDatasetsMatchBitForBit) {
  // 64 seeded datasets: 1-5 tables, 1-8 data columns, 50-4000 rows,
  // domains from 2 to 20000 (dense and sparse against the row count).
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    data::DatasetGenParams p;
    p.name = "gen_" + std::to_string(seed);
    p.min_tables = 1;
    p.max_tables = 5;
    p.min_columns = 1;
    p.max_columns = 8;
    p.min_rows = 50;
    p.max_rows = seed % 4 == 0 ? 4000 : 600;
    p.min_domain = seed % 3 == 0 ? 2 : 10;
    p.max_domain = seed % 2 == 0 ? 20000 : 200;
    data::Dataset ds = data::GenerateDataset(p, &rng);
    ExpectMatchesReference(ds);
  }
}

}  // namespace
}  // namespace autoce::featgraph
