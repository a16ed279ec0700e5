#ifndef AUTOCE_CE_NEUROCARD_H_
#define AUTOCE_CE_NEUROCARD_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ce/estimator.h"
#include "ce/join_stats.h"
#include "nn/layers.h"
#include "util/rng.h"

namespace autoce::ce {

/// \brief The autoregressive density core shared by NeuroCard and UAE.
///
/// The model factorizes the joint distribution of the (binned) non-key
/// columns of the full join sample autoregressively:
/// P(x) = prod_i P(x_i | x_<i). Each column has an embedding table; the
/// context for column i is the sum of the embeddings of the previous
/// columns' bins, passed through a shared trunk MLP and a per-column
/// output head producing bin logits. Range queries are answered by
/// progressive sampling (Yang et al.): sample prefixes, accumulate the
/// probability mass of the predicate interval at each queried column.
///
/// Sampling runs column by column over all live samples at once.
/// Samples that chose the same bins so far share one context row, so
/// each distinct prefix goes through the network once, as one row of a
/// (prefixes x embedding) product. Every kernel keeps a fixed per-element
/// reduction order, so each row has the same bits as a one-row forward.
/// The uniforms a sample draws are pre-drawn in sample-major order; a
/// sample that draws other than the budget (its interval mass underflows
/// to zero, or is NaN at an empty interval) ends the batch, the
/// generator is rewound to just past the true draws, and the remaining
/// samples re-run. Estimates and the generator's final state are those
/// of one-sample-at-a-time sampling.
///
/// Substitution note (see DESIGN.md): this replaces the ResMADE network
/// of the original NeuroCard with an equally autoregressive but smaller
/// parameterization; the estimator keeps the paper-relevant profile
/// (high single-table accuracy, expensive sampling-based inference).
class AutoregressiveModel {
 public:
  struct ColumnSpec {
    int table = -1;
    int column = -1;
    int32_t domain = 1;
    int num_bins = 1;
  };

  struct Params {
    int embedding_dim = 8;
    int hidden = 32;
    int max_bins = 32;
    int epochs = 3;
    double learning_rate = 0.01;
  };

  /// Initializes the architecture for the given column layout.
  void Init(std::vector<ColumnSpec> columns, const Params& params, Rng* rng);

  /// One SGD pass over `rows`; rows[r][i] is the raw coded value of
  /// column i in training tuple r.
  void Train(const std::vector<std::vector<int32_t>>& rows);

  /// Progressive-sampling estimate of P(all interval constraints hold).
  /// `lo[i]`, `hi[i]` give the allowed coded interval per column (use the
  /// full domain for unconstrained columns); `constrained[i]` marks the
  /// queried columns. `num_samples` controls the accuracy/latency
  /// trade-off.
  double EstimateSelectivity(const std::vector<int32_t>& lo,
                             const std::vector<int32_t>& hi,
                             const std::vector<char>& constrained,
                             int num_samples, Rng* rng) const;

  const std::vector<ColumnSpec>& columns() const { return columns_; }

  int BinOf(size_t col, int32_t value) const;

 private:
  friend class ProgressiveSamplingTestPeer;

  /// Fraction of bin `b`'s value range inside [lo, hi].
  double BinCoverage(size_t col, int b, int32_t lo, int32_t hi) const;

  /// Samples `count` prefixes column by column. `coverage[c]` holds the
  /// per-bin coverage of constrained column c (empty when unconstrained);
  /// sample s reads its draw at column c from uniforms[s * budget + c].
  /// Appends the weights of the samples up to and including the first
  /// one that did not draw exactly `budget` uniforms; returns the number
  /// of uniforms those samples drew.
  size_t SampleBatch(const std::vector<std::vector<double>>& coverage,
                     size_t budget, size_t count,
                     const std::vector<double>& uniforms,
                     std::vector<double>* weights) const;

  /// Bin logits for column `col` given a context vector (1 x embedding).
  nn::Matrix Logits(size_t col, const nn::Matrix& context,
                    nn::MlpTrace* trunk_trace,
                    nn::MlpTrace* head_trace) const;

  std::vector<ColumnSpec> columns_;
  Params params_;
  std::unique_ptr<nn::Mlp> trunk_;              // embedding_dim -> hidden
  std::vector<nn::Mlp> heads_;                  // hidden -> bins_c
  std::vector<nn::Matrix> embeddings_;          // bins_c x embedding_dim
  std::vector<nn::Matrix> embedding_grads_;
  Rng train_rng_{1234};
};

/// \brief NeuroCard (Yang et al., paper baseline (6)): one autoregressive
/// model over samples of the full outer join; progressive sampling at
/// inference. The most accurate data-driven model on correlated single
/// tables and the slowest at inference — matching its role in the
/// paper's accuracy/latency trade-off.
class NeuroCardEstimator : public CardinalityEstimator {
 public:
  explicit NeuroCardEstimator(const ModelTrainingScale& scale);

  ModelId id() const override { return ModelId::kNeuroCard; }
  bool is_data_driven() const override { return true; }
  Status Train(const TrainContext& ctx) override;
  double EstimateCardinality(const query::Query& q) override;
  /// Resets the progressive-sampling stream so the next estimate is a
  /// pure function of (model weights, seed, query) — not of how many
  /// estimates came before it.
  void SeedInference(uint64_t seed) override { sample_rng_ = Rng(seed); }

 protected:
  friend class ProgressiveSamplingTestPeer;

  /// Selectivity of q's predicates under the AR model (shared with UAE).
  double PredicateSelectivity(const query::Query& q);
  /// Approximate unfiltered join size of q's table subset (full-join
  /// fan-out downscaling; cached).
  double JoinSizeOf(const query::Query& q);

  ModelTrainingScale scale_;
  const data::Dataset* dataset_ = nullptr;
  AutoregressiveModel model_;
  /// Map (table, column) -> AR column index; -1 for unmodeled columns.
  std::vector<std::vector<int>> column_index_;
  /// Fan-out statistics used to downscale subset join sizes.
  JoinCardModel join_model_;
  /// Cached approximate unfiltered join sizes keyed by table bitmask.
  std::unordered_map<uint32_t, double> join_sizes_;
  Rng sample_rng_{987};
};

/// \brief UAE (Wu & Cong, paper baseline (7)): unified data + query
/// learning. Shares the NeuroCard autoregressive core and additionally
/// learns from the training workload via a log-space calibration layer
/// (substituting the original's Gumbel-Softmax differentiable sampling;
/// see DESIGN.md). Slightly more accurate on workload-like queries,
/// slowest overall.
class UaeEstimator : public NeuroCardEstimator {
 public:
  explicit UaeEstimator(const ModelTrainingScale& scale);

  ModelId id() const override { return ModelId::kUae; }
  Status Train(const TrainContext& ctx) override;
  double EstimateCardinality(const query::Query& q) override;

 private:
  double calib_a_ = 1.0;
  double calib_b_ = 0.0;
};

}  // namespace autoce::ce

#endif  // AUTOCE_CE_NEUROCARD_H_
