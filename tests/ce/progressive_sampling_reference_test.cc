// Pins AutoregressiveModel::EstimateSelectivity, which samples column by
// column over all live samples with shared prefixes, to the
// one-sample-at-a-time loop it replaced. That loop is kept below
// verbatim; every estimate and the generator's state after every call
// must be byte-identical between the two.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "ce/neurocard.h"
#include "data/generator.h"
#include "engine/executor.h"
#include "nn/loss.h"

namespace autoce::ce {

/// Reaches the model's internals: the reference loop needs the private
/// forward pieces, and the stop test rewrites one output head.
class ProgressiveSamplingTestPeer {
 public:
  static AutoregressiveModel& Model(NeuroCardEstimator& e) { return e.model_; }

  /// The coded intervals NeuroCardEstimator::PredicateSelectivity builds.
  static void Intervals(const NeuroCardEstimator& e, const query::Query& q,
                        std::vector<int32_t>* lo, std::vector<int32_t>* hi,
                        std::vector<char>* constrained) {
    size_t n = e.model_.columns().size();
    lo->assign(n, 1);
    hi->assign(n, 1);
    constrained->assign(n, 0);
    for (size_t c = 0; c < n; ++c) (*hi)[c] = e.model_.columns()[c].domain;
    for (const auto& p : q.predicates) {
      int idx = e.column_index_[static_cast<size_t>(p.table)]
                               [static_cast<size_t>(p.column)];
      if (idx < 0) continue;
      size_t c = static_cast<size_t>(idx);
      (*lo)[c] = std::max((*lo)[c], p.lo);
      (*hi)[c] = std::min((*hi)[c], p.hi);
      (*constrained)[c] = 1;
    }
  }

  /// Trunk output for one context row.
  static nn::Matrix Hidden(const AutoregressiveModel& m,
                           const nn::Matrix& context) {
    return m.trunk_->Forward(context);
  }
  static const nn::Matrix& Embedding(const AutoregressiveModel& m,
                                     size_t col) {
    return m.embeddings_[col];
  }
  static nn::Mlp& Head(AutoregressiveModel& m, size_t col) {
    return m.heads_[col];
  }
  static nn::Matrix Probs(const AutoregressiveModel& m, size_t col,
                          const nn::Matrix& context) {
    return nn::Softmax(m.Logits(col, context, nullptr, nullptr));
  }

  /// The one-sample-at-a-time progressive sampling loop, as it stood
  /// before sampling went column-major (members reached through `m`).
  static double ReferenceEstimate(const AutoregressiveModel& m,
                                  const std::vector<int32_t>& lo,
                                  const std::vector<int32_t>& hi,
                                  const std::vector<char>& constrained,
                                  int num_samples, Rng* rng) {
    if (m.columns_.empty()) return 1.0;
    size_t d = static_cast<size_t>(m.params_.embedding_dim);
    // Progressive sampling can stop after the last constrained column: the
    // remaining conditionals marginalize to 1.
    size_t last = 0;
    bool any = false;
    for (size_t c = 0; c < m.columns_.size(); ++c) {
      if (constrained[c]) {
        last = c;
        any = true;
      }
    }
    if (!any) return 1.0;

    double total = 0.0;
    for (int s = 0; s < num_samples; ++s) {
      nn::Matrix ctx(1, d, 0.0);
      double weight = 1.0;
      for (size_t c = 0; c <= last; ++c) {
        nn::Matrix probs = nn::Softmax(m.Logits(c, ctx, nullptr, nullptr));
        int bins = m.columns_[c].num_bins;
        int chosen = -1;
        if (constrained[c]) {
          double mass = 0.0;
          std::vector<double> masked(static_cast<size_t>(bins), 0.0);
          for (int b = 0; b < bins; ++b) {
            double cov = m.BinCoverage(c, b, lo[c], hi[c]);
            masked[static_cast<size_t>(b)] = probs(0, static_cast<size_t>(b)) * cov;
            mass += masked[static_cast<size_t>(b)];
          }
          weight *= mass;
          if (mass <= 0.0) {
            weight = 0.0;
            break;
          }
          double u = rng->Uniform() * mass;
          double acc = 0.0;
          for (int b = 0; b < bins; ++b) {
            acc += masked[static_cast<size_t>(b)];
            if (acc >= u) {
              chosen = b;
              break;
            }
          }
          if (chosen < 0) chosen = bins - 1;
        } else {
          double u = rng->Uniform();
          double acc = 0.0;
          for (int b = 0; b < bins; ++b) {
            acc += probs(0, static_cast<size_t>(b));
            if (acc >= u) {
              chosen = b;
              break;
            }
          }
          if (chosen < 0) chosen = bins - 1;
        }
        for (size_t k = 0; k < d; ++k) {
          ctx(0, k) += m.embeddings_[c](static_cast<size_t>(chosen), k);
        }
      }
      total += weight;
    }
    return total / static_cast<double>(num_samples);
  }
};

namespace {

using Peer = ProgressiveSamplingTestPeer;

const int kSampleCounts[] = {1, 3, 48, 200};

bool SameState(const Rng& a, const Rng& b) {
  Rng::State sa = a.SaveState(), sb = b.SaveState();
  return std::memcmp(sa.s.data(), sb.s.data(), sizeof(sa.s)) == 0 &&
         sa.has_cached_gaussian == sb.has_cached_gaussian &&
         std::memcmp(&sa.cached_gaussian, &sb.cached_gaussian,
                     sizeof(double)) == 0;
}

/// Number of draws between `start` and `end` (at most `limit`); -1 when
/// `end` is not reachable from `start` within the limit.
int64_t DrawsBetween(Rng start, const Rng& end, int64_t limit) {
  for (int64_t n = 0; n <= limit; ++n) {
    if (SameState(start, end)) return n;
    start.Next();
  }
  return -1;
}

/// Runs the batched and the reference estimate from generators in the
/// same state and checks the estimate bits and the final states.
/// Both generators continue from where they are, so a mismatch in one
/// call also shows in every later one.
void ExpectSameBits(const AutoregressiveModel& m,
                    const std::vector<int32_t>& lo,
                    const std::vector<int32_t>& hi,
                    const std::vector<char>& constrained, int samples,
                    Rng* batched, Rng* reference, const std::string& what) {
  ASSERT_TRUE(SameState(*batched, *reference)) << what;
  double got = m.EstimateSelectivity(lo, hi, constrained, samples, batched);
  double want =
      Peer::ReferenceEstimate(m, lo, hi, constrained, samples, reference);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << what << ": " << got << " vs " << want;
  EXPECT_TRUE(SameState(*batched, *reference)) << what << ": rng state";
}

struct Trained {
  data::Dataset dataset;
  std::vector<query::Query> queries;
  std::vector<double> cards;
  std::unique_ptr<CardinalityEstimator> neurocard;
  std::unique_ptr<CardinalityEstimator> uae;
};

std::unique_ptr<Trained> TrainOn(int tables, uint64_t seed) {
  auto out = std::make_unique<Trained>();
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 250;
  p.max_rows = 500;
  out->dataset = data::GenerateDataset(p, &rng);
  query::WorkloadParams wp;
  wp.num_queries = 36;
  out->queries = query::GenerateWorkload(out->dataset, wp, &rng);
  out->cards = engine::TrueCardinalities(out->dataset, out->queries);
  TrainContext ctx;
  ctx.dataset = &out->dataset;
  ctx.train_queries = &out->queries;
  ctx.train_cards = &out->cards;
  ctx.seed = seed;
  out->neurocard = CreateModel(ModelId::kNeuroCard, ModelTrainingScale::Fast());
  out->uae = CreateModel(ModelId::kUae, ModelTrainingScale::Fast());
  EXPECT_TRUE(out->neurocard->Train(ctx).ok());
  EXPECT_TRUE(out->uae->Train(ctx).ok());
  return out;
}

TEST(ProgressiveSamplingReferenceTest, NeuroCardAndUaeOnGeneratorDatasets) {
  for (int tables : {3, 4, 5}) {
    auto t = TrainOn(tables, 40 + static_cast<uint64_t>(tables));
    for (CardinalityEstimator* e : {t->neurocard.get(), t->uae.get()}) {
      auto& est = static_cast<NeuroCardEstimator&>(*e);
      const AutoregressiveModel& m = Peer::Model(est);
      Rng batched(7 * static_cast<uint64_t>(tables)), reference = batched;
      std::vector<int32_t> lo, hi;
      std::vector<char> constrained;
      for (size_t i = 0; i < t->queries.size(); ++i) {
        Peer::Intervals(est, t->queries[i], &lo, &hi, &constrained);
        for (int samples : kSampleCounts) {
          ExpectSameBits(m, lo, hi, constrained, samples, &batched,
                         &reference,
                         e->name() + " tables=" + std::to_string(tables) +
                             " query=" + std::to_string(i) +
                             " samples=" + std::to_string(samples));
        }
      }
    }
  }
}

TEST(ProgressiveSamplingReferenceTest, EmptyIntervalAtEachPosition) {
  auto t = TrainOn(4, 61);
  auto& est = static_cast<NeuroCardEstimator&>(*t->neurocard);
  const AutoregressiveModel& m = Peer::Model(est);
  const size_t n = m.columns().size();
  ASSERT_GE(n, 5u);
  // Constrain a first, a middle and a last column with real intervals,
  // then empty each in turn (lo > hi, and an interval past the domain).
  const std::vector<size_t> cols = {1, n / 2, n - 2};
  Rng batched(5), reference = batched;
  for (size_t empty = 0; empty < cols.size(); ++empty) {
    for (int kind = 0; kind < 2; ++kind) {
      std::vector<int32_t> lo(n, 1), hi(n);
      std::vector<char> constrained(n, 0);
      for (size_t c = 0; c < n; ++c) hi[c] = m.columns()[c].domain;
      for (size_t c : cols) {
        constrained[c] = 1;
        hi[c] = std::max(1, m.columns()[c].domain / 2);
      }
      size_t c = cols[empty];
      if (kind == 0) {
        lo[c] = 3;
        hi[c] = 2;
      } else {
        lo[c] = m.columns()[c].domain + 1;
        hi[c] = m.columns()[c].domain + 5;
      }
      for (int samples : kSampleCounts) {
        ExpectSameBits(m, lo, hi, constrained, samples, &batched, &reference,
                       "empty at " + std::to_string(c) + " kind " +
                           std::to_string(kind) + " samples " +
                           std::to_string(samples));
      }
      // Every sample stops at the empty column: the generator moved by
      // exactly one draw per sample per column before it.
      Rng before = batched;
      m.EstimateSelectivity(lo, hi, constrained, 48, &batched);
      Peer::ReferenceEstimate(m, lo, hi, constrained, 48, &reference);
      EXPECT_EQ(DrawsBetween(before, batched, 48 * static_cast<int64_t>(n)),
                48 * static_cast<int64_t>(c));
    }
  }
}

/// An AR model over the given domains, trained briefly on random rows
/// that correlate each column with the previous one.
AutoregressiveModel MakeModel(const std::vector<int32_t>& domains,
                              uint64_t seed) {
  AutoregressiveModel model;
  AutoregressiveModel::Params params;
  params.hidden = 20;
  params.epochs = 2;
  Rng rng(seed);
  std::vector<AutoregressiveModel::ColumnSpec> specs(domains.size());
  for (size_t c = 0; c < domains.size(); ++c) {
    specs[c].table = 0;
    specs[c].column = static_cast<int>(c);
    specs[c].domain = domains[c];
  }
  model.Init(specs, params, &rng);
  std::vector<std::vector<int32_t>> rows(400);
  for (auto& row : rows) {
    int32_t prev = 1;
    for (int32_t dom : domains) {
      int32_t v = rng.Bernoulli(0.7)
                      ? std::min(dom, prev)
                      : static_cast<int32_t>(rng.UniformInt(1, dom));
      row.push_back(v);
      prev = v;
    }
  }
  model.Train(rows);
  return model;
}

TEST(ProgressiveSamplingReferenceTest, SingleColumnAndOddBinCounts) {
  // Bin counts 13, 5, 11 and 29 are not multiples of the 8-wide tiles;
  // the one-column model has a single, context-free step.
  for (const std::vector<int32_t>& domains :
       {std::vector<int32_t>{13}, std::vector<int32_t>{5, 11, 29},
        std::vector<int32_t>{200, 7, 13, 40, 3}}) {
    AutoregressiveModel m = MakeModel(domains, domains.size());
    const size_t n = domains.size();
    Rng pick(9), batched(11), reference = batched;
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<int32_t> lo(n, 1), hi(domains);
      std::vector<char> constrained(n, 0);
      for (size_t c = 0; c < n; ++c) {
        if (n > 1 && pick.Bernoulli(0.4)) continue;
        constrained[c] = 1;
        int32_t a = static_cast<int32_t>(pick.UniformInt(1, domains[c]));
        int32_t b = static_cast<int32_t>(pick.UniformInt(1, domains[c]));
        lo[c] = std::min(a, b);
        hi[c] = std::max(a, b);
      }
      for (int samples : kSampleCounts) {
        ExpectSameBits(m, lo, hi, constrained, samples, &batched, &reference,
                       "columns " + std::to_string(n) + " trial " +
                           std::to_string(trial) + " samples " +
                           std::to_string(samples));
      }
    }
  }
}

TEST(ProgressiveSamplingReferenceTest, StopThatHitsSomeSamplesOnly) {
  AutoregressiveModel m = MakeModel({24, 24, 24}, 3);
  const size_t d = Peer::Embedding(m, 0).cols();
  // Column 1's context is column 0's bin embedding. Pick the hidden unit
  // and threshold that split column 0's bins into two sides that both
  // carry sampling mass, then make bin `target` of column 1 dominate on
  // one side and underflow to exactly zero probability on the other.
  nn::Matrix zero(1, d, 0.0);
  nn::Matrix p0 = Peer::Probs(m, 0, zero);
  const size_t bins0 = p0.cols();
  std::vector<std::vector<double>> hidden(bins0);
  for (size_t b = 0; b < bins0; ++b) {
    nn::Matrix ctx(1, d);
    for (size_t k = 0; k < d; ++k) ctx(0, k) = Peer::Embedding(m, 0)(b, k);
    nn::Matrix h = Peer::Hidden(m, ctx);
    hidden[b].assign(h.data(), h.data() + h.size());
  }
  size_t best_unit = 0;
  double best_split = 0.0, best_threshold = 0.0, best_gap = 0.0;
  for (size_t j = 0; j < hidden[0].size(); ++j) {
    std::vector<std::pair<double, double>> by_value;  // (h_j, mass)
    for (size_t b = 0; b < bins0; ++b) {
      by_value.emplace_back(hidden[b][j], p0(0, b));
    }
    std::sort(by_value.begin(), by_value.end());
    double below = 0.0;
    for (size_t i = 0; i + 1 < by_value.size(); ++i) {
      below += by_value[i].second;
      double gap = by_value[i + 1].first - by_value[i].first;
      double split = std::min(below, 1.0 - below);
      if (gap > 1e-9 && split > best_split) {
        best_unit = j;
        best_split = split;
        best_gap = gap;
        best_threshold = by_value[i].first + gap / 2;
      }
    }
  }
  ASSERT_GT(best_split, 0.1);
  const size_t target = 5;
  const double scale = 4000.0 / best_gap;
  std::vector<nn::Matrix*> head = Peer::Head(m, 1).Params();  // {W, b}
  for (size_t k = 0; k < head[0]->rows(); ++k) (*head[0])(k, target) = 0.0;
  (*head[0])(best_unit, target) = scale;
  (*head[1])(0, target) = -scale * best_threshold;

  // Column 1 allows only bin `target` (values 6); column 2 is queried
  // too, so samples that survive column 1 keep drawing.
  std::vector<int32_t> lo = {1, 6, 4}, hi = {24, 6, 20};
  std::vector<char> constrained = {0, 1, 1};
  for (int samples : kSampleCounts) {
    Rng batched(static_cast<uint64_t>(samples)), reference = batched;
    const Rng start = batched;
    ExpectSameBits(m, lo, hi, constrained, samples, &batched, &reference,
                   "samples " + std::to_string(samples));
    if (samples < 48) continue;
    // Stopped samples draw once (column 0), the others three times.
    int64_t draws = DrawsBetween(start, reference, 3 * samples);
    EXPECT_GT(draws, samples);
    EXPECT_LT(draws, 3 * samples);
  }
}

TEST(ProgressiveSamplingReferenceTest, NonFiniteMassOverrunsTheBudget) {
  // Column 2's interval is empty, so every sample should stop there. A
  // -inf weight on one hidden unit makes that column's logits NaN
  // (0 * -inf) for the contexts where the unit is exactly zero, so their
  // mass is NaN, which is not <= 0: those samples draw at columns 2 and
  // 3 as well, past the budget the empty column set, and the samples
  // after them must re-run.
  AutoregressiveModel m = MakeModel({16, 16, 16, 16}, 4);
  const size_t d = Peer::Embedding(m, 0).cols();
  const size_t bins = Peer::Embedding(m, 0).rows();
  std::vector<size_t> zeros;  // per hidden unit: contexts where it is 0
  for (size_t b0 = 0; b0 < bins; ++b0) {
    for (size_t b1 = 0; b1 < bins; ++b1) {
      nn::Matrix ctx(1, d, 0.0);
      for (size_t k = 0; k < d; ++k) {
        ctx(0, k) += Peer::Embedding(m, 0)(b0, k);
        ctx(0, k) += Peer::Embedding(m, 1)(b1, k);
      }
      nn::Matrix h = Peer::Hidden(m, ctx);
      zeros.resize(h.cols(), 0);
      for (size_t j = 0; j < h.cols(); ++j) zeros[j] += h(0, j) == 0.0;
    }
  }
  size_t unit = 0;
  auto balance = [&](size_t j) {
    return std::min(zeros[j], bins * bins - zeros[j]);
  };
  for (size_t j = 1; j < zeros.size(); ++j) {
    if (balance(j) > balance(unit)) unit = j;
  }
  ASSERT_GT(balance(unit), bins * bins / 10);
  std::vector<nn::Matrix*> head = Peer::Head(m, 2).Params();  // {W, b}
  (*head[0])(unit, 3) = -std::numeric_limits<double>::infinity();

  std::vector<int32_t> lo = {1, 1, 9, 1}, hi = {16, 16, 4, 8};
  std::vector<char> constrained = {0, 1, 1, 1};
  for (int samples : kSampleCounts) {
    Rng batched(static_cast<uint64_t>(samples) + 100), reference = batched;
    const Rng start = batched;
    ExpectSameBits(m, lo, hi, constrained, samples, &batched, &reference,
                   "samples " + std::to_string(samples));
    if (samples < 48) continue;
    // Stopping samples draw twice, overrunning ones four times.
    int64_t draws = DrawsBetween(start, reference, 4 * samples);
    EXPECT_GT(draws, 2 * samples);
    EXPECT_LT(draws, 4 * samples);
  }
}

}  // namespace
}  // namespace autoce::ce
