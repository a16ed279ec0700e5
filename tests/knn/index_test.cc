// Exactness and determinism contract of knn::Index (DESIGN.md §5.8):
// every query shape the advisor issues — any k, exclusions, allowed
// masks, unusable or non-finite members, distance ties, adversarial
// coordinates — must return bitwise the neighbor list of an in-test
// brute-force reference that sorts every (squared distance, index)
// pair and takes the sqrt of the first k.
#include "knn/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace autoce::knn {
namespace {

std::vector<std::vector<double>> RandomPoints(size_t n, size_t dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(dim));
  for (auto& p : points) {
    for (double& x : p) x = rng.Uniform(-1.0, 1.0);
  }
  return points;
}

/// Squared L2 in the documented util::simd reduction order, written
/// longhand: element i joins lane (i mod 4) via fma, lanes combine as
/// (l0 + l2) + (l1 + l3).
double ReferenceSquaredL2(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    lane[i % 4] = std::fma(d, d, lane[i % 4]);
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

/// Brute force: every retrievable member's (squared distance, index)
/// pair, fully sorted, first k, sqrt. Unusable, excluded, disallowed and
/// non-finite-distance members are never neighbors; a non-finite query
/// retrieves nothing.
std::vector<Neighbor> Reference(const std::vector<std::vector<double>>& points,
                                const std::vector<char>& usable,
                                const std::vector<double>& query, size_t k,
                                size_t exclude = SIZE_MAX,
                                const std::vector<char>* allowed = nullptr) {
  for (double x : query) {
    if (!std::isfinite(x)) return {};
  }
  std::vector<std::pair<double, size_t>> pairs;
  for (size_t i = 0; i < points.size(); ++i) {
    if ((!usable.empty() && !usable[i]) || i == exclude) continue;
    if (allowed != nullptr && !(*allowed)[i]) continue;
    double sq = ReferenceSquaredL2(query, points[i]);
    if (std::isfinite(sq)) pairs.emplace_back(sq, i);
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<Neighbor> out;
  for (size_t r = 0; r < std::min(k, pairs.size()); ++r) {
    out.push_back(Neighbor{std::sqrt(pairs[r].first), pairs[r].second});
  }
  return out;
}

/// Bitwise equality of neighbor lists (distances compared as raw bits).
void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    uint64_t bits_got, bits_want;
    std::memcpy(&bits_got, &got[i].distance, sizeof(bits_got));
    std::memcpy(&bits_want, &want[i].distance, sizeof(bits_want));
    EXPECT_EQ(bits_got, bits_want) << "rank " << i;
  }
}

TEST(KnnIndexTest, MatchesReferenceAcrossKValues) {
  auto points = RandomPoints(97, 8, 11);
  Index index = Index::Build(points);
  EXPECT_EQ(index.size(), 97u);
  EXPECT_EQ(index.usable_size(), 97u);
  for (size_t i = 0; i < points.size(); ++i) {
    std::span<const double> p = index.Point(i);
    ASSERT_EQ(p.size(), 8u);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), points[i].begin()));
  }
  Rng rng(12);
  for (int q = 0; q < 40; ++q) {
    std::vector<double> query(8);
    for (double& x : query) x = rng.Uniform(-1.2, 1.2);
    for (size_t k : {0u, 1u, 2u, 5u, 16u, 97u, 200u}) {
      ExpectSameNeighbors(index.Query(query, k),
                          Reference(points, {}, query, k));
    }
  }
}

TEST(KnnIndexTest, ExcludeAndAllowedMasksMatchLinear) {
  auto points = RandomPoints(64, 6, 21);
  Index index = Index::Build(points);
  // Validation-split style mask: every third member blocked.
  std::vector<char> allowed(points.size(), 1);
  for (size_t i = 0; i < allowed.size(); i += 3) allowed[i] = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t k : {1u, 3u, 100u}) {
      ExpectSameNeighbors(index.Query(points[i], k, /*exclude=*/i),
                          Reference(points, {}, points[i], k, i));
      ExpectSameNeighbors(
          index.Query(points[i], k, SIZE_MAX, &allowed),
          Reference(points, {}, points[i], k, SIZE_MAX, &allowed));
      ExpectSameNeighbors(index.Query(points[i], k, i, &allowed),
                          Reference(points, {}, points[i], k, i, &allowed));
    }
  }
}

TEST(KnnIndexTest, UnusableMembersAreNeverRetrieved) {
  auto points = RandomPoints(40, 4, 31);
  std::vector<char> usable(points.size(), 1);
  for (size_t i = 1; i < usable.size(); i += 2) usable[i] = 0;
  Index index = Index::Build(points, usable);
  EXPECT_EQ(index.size(), 40u);
  EXPECT_EQ(index.usable_size(), 20u);
  EXPECT_TRUE(index.usable(0));
  EXPECT_FALSE(index.usable(1));
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t k : {5u, 20u, 40u}) {
      auto got = index.Query(points[i], k);
      ExpectSameNeighbors(got, Reference(points, usable, points[i], k));
      for (const Neighbor& n : got) EXPECT_EQ(n.index % 2, 0u);
    }
  }
}

TEST(KnnIndexTest, NonFiniteMemberIsNeverRetrieved) {
  // A member left usable whose embedding is non-finite has a non-finite
  // distance to every query; it must never appear, even with k above the
  // member count.
  auto points = RandomPoints(12, 5, 35);
  points[3][2] = std::numeric_limits<double>::quiet_NaN();
  points[7][0] = std::numeric_limits<double>::infinity();
  Index index = Index::Build(points);
  auto queries = RandomPoints(6, 5, 36);
  for (const auto& q : queries) {
    for (size_t k : {1u, 5u, 16u}) {
      auto got = index.Query(q, k);
      ExpectSameNeighbors(got, Reference(points, {}, q, k));
      for (const Neighbor& n : got) {
        EXPECT_NE(n.index, 3u);
        EXPECT_NE(n.index, 7u);
      }
    }
  }
  EXPECT_EQ(index.Query(queries[0], 16).size(), 10u);
}

TEST(KnnIndexTest, DuplicatePointsTieBreakOnSmallerIndex) {
  // Three identical clusters of four points each: within a cluster every
  // distance ties, so retrieval order must be ascending member index.
  std::vector<std::vector<double>> points;
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 4; ++r) {
      points.push_back({static_cast<double>(c), 0.0});
    }
  }
  Index index = Index::Build(points);
  std::vector<double> query = {0.0, 0.0};
  for (size_t k : {1u, 4u, 6u}) {
    auto got = index.Query(query, k);
    ExpectSameNeighbors(got, Reference(points, {}, query, k));
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < std::min<size_t>(k, 4); ++i) {
      EXPECT_EQ(got[i].index, i);
      EXPECT_EQ(got[i].distance, 0.0);
    }
  }
  // Query from the middle cluster: the tie goes to its smallest member.
  auto mid = index.Query(points[6], 1);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].index, 4u);
}

TEST(KnnIndexTest, LeaveOneOutMatchesReference) {
  // The drift threshold's query: k = 1 excluding the member itself. On a
  // duplicate the nearest neighbor is its twin at distance 0.
  auto points = RandomPoints(60, 10, 77);
  points[20] = points[4];
  Index index = Index::Build(points);

  auto tied = index.Query(points[20], 1);
  ASSERT_EQ(tied.size(), 1u);
  EXPECT_EQ(tied[0].index, 4u);
  EXPECT_EQ(tied[0].distance, 0.0);
  auto loo = index.Query(points[4], 1, /*exclude=*/4);
  ASSERT_EQ(loo.size(), 1u);
  EXPECT_EQ(loo[0].index, 20u);
  EXPECT_EQ(loo[0].distance, 0.0);

  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t k : {1u, 2u}) {
      ExpectSameNeighbors(index.Query(points[i], k, i),
                          Reference(points, {}, points[i], k, i));
    }
  }
}

TEST(KnnIndexTest, ExactnessOnAdversarialInputs) {
  // Duplicates, a zero vector, denormals, a constant dimension, a far
  // cluster, and queries outside the members' range.
  std::vector<std::vector<double>> points;
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> p(8);
    for (double& v : p) v = rng.Gaussian();
    points.push_back(p);
  }
  points.push_back(points[10]);  // duplicate of 10
  points.push_back(points[10]);  // another duplicate
  points.push_back(std::vector<double>(8, 0.0));
  points.push_back(std::vector<double>(8, 4.9e-324));  // denormals
  points.push_back(std::vector<double>(8, 1e6));       // far cluster
  points.push_back(std::vector<double>(8, 1e6));
  for (auto& p : points) p[3] = 2.5;  // constant dimension
  Index index = Index::Build(points);

  std::vector<std::vector<double>> queries = RandomPoints(10, 8, 17);
  queries.push_back(points[10]);  // lands on the ties
  queries.push_back(std::vector<double>(8, 0.0));
  queries.push_back(std::vector<double>(8, 4.9e-324));
  queries.push_back(std::vector<double>(8, 2e6));  // beyond the far cluster
  for (auto& q : queries) q[3] = rng.Gaussian();   // off the constant dim

  std::vector<char> allowed(points.size(), 1);
  allowed[10] = 0;
  for (const auto& q : queries) {
    for (size_t k : {1u, 3u, 10u, 200u}) {
      ExpectSameNeighbors(index.Query(q, k), Reference(points, {}, q, k));
      ExpectSameNeighbors(index.Query(q, k, 11, &allowed),
                          Reference(points, {}, q, k, 11, &allowed));
    }
  }
}

TEST(KnnIndexTest, DegenerateQueriesReturnEmpty) {
  auto points = RandomPoints(16, 3, 51);
  Index index = Index::Build(points);
  std::vector<double> query = {0.1, 0.2, 0.3};
  EXPECT_TRUE(index.Query(query, 0).empty());

  std::vector<double> bad = {0.1, std::numeric_limits<double>::quiet_NaN(),
                             0.3};
  EXPECT_TRUE(index.Query(bad, 3).empty());
  std::vector<double> inf = {std::numeric_limits<double>::infinity(), 0.0,
                             0.0};
  EXPECT_TRUE(index.Query(inf, 3).empty());

  Index empty = Index::Build({});
  EXPECT_TRUE(empty.Query(query, 3).empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.usable_size(), 0u);

  std::vector<char> none(points.size(), 0);
  Index unusable = Index::Build(points, none);
  EXPECT_EQ(unusable.usable_size(), 0u);
  EXPECT_TRUE(unusable.Query(query, 3).empty());
}

}  // namespace
}  // namespace autoce::knn
