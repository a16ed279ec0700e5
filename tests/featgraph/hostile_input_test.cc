// Extract, JoinCorrelation, CountDistinct and Validate on columns that
// never passed Validate: zero, negative and out-of-domain values,
// INT32_MIN/MAX, and a huge declared domain over a handful of rows.
// Every call must return, and no single allocation may grow with the
// value span instead of the row count. The binary's operator new
// records the largest request so that bound is checked, not assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "data/dataset.h"
#include "data/distinct.h"
#include "featgraph/featgraph.h"

namespace {
std::atomic<size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t size) {
  size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, size,
                                                std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() applied to the result of
// operator new and warn of a mismatch; both sides are malloc/free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace autoce::featgraph {
namespace {

constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
constexpr int32_t kMax = std::numeric_limits<int32_t>::max();

/// Largest single allocation allowed for inputs of a few rows: far
/// above what their per-row structures need, far below any bitmap over
/// an int32-wide span.
constexpr size_t kSmallInputAllocBound = 1 << 20;

data::Column MakeColumn(std::string name, std::vector<int32_t> values,
                        int32_t domain) {
  data::Column c;
  c.name = std::move(name);
  c.values = std::move(values);
  c.domain_size = domain;
  return c;
}

/// Hostile columns of a few rows each.
std::vector<data::Column> HostileColumns() {
  return {
      MakeColumn("zero", {0, 0, 1}, 5),
      MakeColumn("negative", {-3, -1, -7, 2}, 5),
      MakeColumn("above_domain", {6, 100, 3, 99}, 5),
      MakeColumn("int32_extremes", {kMin, kMax, 0, kMin, kMax}, kMax),
      MakeColumn("near_max", {kMax, kMax - 1, kMax - 2}, 3),
      MakeColumn("huge_domain", {1, 1000000, kMax}, kMax),
      MakeColumn("nonpositive_domain", {1, 2, 3}, 0),
      MakeColumn("negative_domain", {kMin, -1, 1}, kMin),
      MakeColumn("wide_span", {1, 5000000, 3}, 5000000),
  };
}

data::Dataset HostileDataset() {
  data::Dataset ds("hostile");
  data::Table pk_t, fk_t;
  pk_t.name = "pk";
  pk_t.columns = HostileColumns();
  pk_t.columns.resize(5);  // ragged: 3 to 5 rows
  pk_t.primary_key = 3;
  fk_t.name = "fk";
  fk_t.columns = HostileColumns();
  ds.AddTable(pk_t);
  ds.AddTable(fk_t);
  for (int c = 0; c < 5; ++c) {
    EXPECT_TRUE(ds.AddForeignKey({1, c, 0, 3}).ok());
    EXPECT_TRUE(ds.AddForeignKey({1, 3, 0, c}).ok());
  }
  return ds;
}

TEST(HostileInputTest, CountDistinctIsExactAndBounded) {
  for (const data::Column& c : HostileColumns()) {
    g_largest_alloc = 0;
    const int64_t distinct = c.CountDistinct();
    EXPECT_LT(g_largest_alloc.load(), kSmallInputAllocBound) << c.name;
    std::vector<int32_t> sorted = c.values;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(distinct, std::unique(sorted.begin(), sorted.end()) -
                            sorted.begin())
        << c.name;
  }
}

TEST(HostileInputTest, JoinCorrelationIsExactAndBounded) {
  data::Dataset ds = HostileDataset();
  for (const data::ForeignKey& fk : ds.foreign_keys()) {
    g_largest_alloc = 0;
    const double jc = ds.JoinCorrelation(fk);
    EXPECT_LT(g_largest_alloc.load(), kSmallInputAllocBound);
    EXPECT_TRUE(std::isfinite(jc));
    EXPECT_GE(jc, 0.0);
    EXPECT_LE(jc, 1.0);
  }
  // int32_extremes against itself: 3 distinct PK values {kMin, 0, kMax},
  // all referenced.
  data::ForeignKey self{1, 3, 0, 3};
  EXPECT_DOUBLE_EQ(ds.JoinCorrelation(self), 1.0);
  // near_max {kMax-2..kMax} references none of {kMin, 0, kMax} but kMax.
  data::ForeignKey near{1, 4, 0, 3};
  EXPECT_DOUBLE_EQ(ds.JoinCorrelation(near), 1.0 / 3.0);
}

TEST(HostileInputTest, ExtractIsFiniteAndBounded) {
  data::Dataset ds = HostileDataset();
  FeatureExtractor fx;
  g_largest_alloc = 0;
  FeatureGraph g = fx.Extract(ds);
  EXPECT_LT(g_largest_alloc.load(), kSmallInputAllocBound);
  EXPECT_TRUE(ValidateGraph(g, fx.vertex_dim()).ok());
  // The range of int32_extremes is 2^32 (squashed to the 1.5 cap), not
  // an overflowed int32 difference.
  const size_t base = 3 * FeatureGraphConfig::kFeaturesPerColumn;
  EXPECT_DOUBLE_EQ(g.vertices(1, base + 3), 1.5);
}

TEST(HostileInputTest, ValidateRejectsAndIsBounded) {
  data::Dataset ds = HostileDataset();
  g_largest_alloc = 0;
  EXPECT_FALSE(ds.Validate().ok());
  EXPECT_LT(g_largest_alloc.load(), kSmallInputAllocBound);

  // A valid 3-row table whose PK domain is INT32_MAX: the PK check
  // must not allocate a bitmap over the declared domain.
  data::Dataset sparse("sparse");
  data::Table t;
  t.name = "t";
  t.columns = {MakeColumn("id", {kMax, 1, kMax - 1}, kMax)};
  t.primary_key = 0;
  sparse.AddTable(t);
  g_largest_alloc = 0;
  EXPECT_TRUE(sparse.Validate().ok());
  EXPECT_LT(g_largest_alloc.load(), kSmallInputAllocBound);
  sparse.mutable_table(0)->columns[0].values[2] = kMax;
  EXPECT_EQ(sparse.Validate().message(), "PK of t not unique");
}

TEST(HostileInputTest, DistinctValuesCountsOutOfRange) {
  std::vector<int32_t> v = {kMin, 0, 1, 2, 2, 5, 6, kMax};
  data::DistinctValues dense(v, 1, 5);
  EXPECT_EQ(dense.count(), 3);
  EXPECT_EQ(dense.out_of_range(), 4);
  data::DistinctValues wide(v, 1, kMax);
  EXPECT_EQ(wide.count(), 5);
  EXPECT_EQ(wide.out_of_range(), 2);
  EXPECT_EQ(wide.Erase({kMax, kMax, 2, 3, kMin}), 2);
  EXPECT_EQ(wide.count(), 3);
  EXPECT_EQ(dense.Erase({kMax, 5, 5, 1, 0}), 2);
  EXPECT_EQ(dense.count(), 1);
  data::DistinctValues all(v);
  EXPECT_EQ(all.count(), 7);
  EXPECT_EQ(all.out_of_range(), 0);
}

}  // namespace
}  // namespace autoce::featgraph
