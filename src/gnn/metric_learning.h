#ifndef AUTOCE_GNN_METRIC_LEARNING_H_
#define AUTOCE_GNN_METRIC_LEARNING_H_

#include <vector>

#include "gnn/gin.h"
#include "nn/optimizer.h"
#include "util/result.h"
#include "util/status.h"

namespace autoce::gnn {

/// Which contrastive objective to use (the paper ablates Eq. 9 vs Eq. 10
/// in Fig. 7).
enum class ContrastiveLoss {
  kWeighted,  // paper Eq. 9 (similarity- and distance-weighted)
  kBasic,     // paper Eq. 10 (Hadsell et al. style)
};

/// Training hyper-parameters of Algorithm 1.
struct DmlConfig {
  int epochs = 40;
  int batch_size = 16;
  /// Positive/negative threshold tau on the similarity of score-vector
  /// labels (paper Eq. 7). The advisor feeds *centered* labels (corpus
  /// mean subtracted), whose cosine spreads over [-1, 1]; tau = 0.3
  /// marks roughly the top third of pairs positive. For raw
  /// (uncentered) labels use a high tau such as 0.95.
  double tau = 0.3;
  /// Margin gamma of the negative term in Eq. 9.
  double gamma = 2.0;
  double learning_rate = 0.003;
  double clip_norm = 5.0;
  ContrastiveLoss loss = ContrastiveLoss::kWeighted;
};

/// Cosine performance similarity of two score vectors (paper Eq. 6).
double PerformanceSimilarity(const std::vector<double>& a,
                             const std::vector<double>& b);

/// \brief Deep-metric-learning trainer for the GIN encoder (Algorithm 1).
///
/// For every batch it forms positive/negative index sets per anchor from
/// the score-vector similarities (Eq. 6-7), computes the weighted
/// contrastive loss over embedding distances (Eq. 8-9), and
/// backpropagates through the shared GIN.
class DmlTrainer {
 public:
  DmlTrainer(GinEncoder* encoder, DmlConfig config);

  /// Trains the encoder on labeled feature graphs; `labels[i]` is the
  /// score vector used for similarity (one weight combination, or
  /// caller-chosen mixture). Returns the final-epoch mean batch loss.
  ///
  /// A batch whose loss or gradients come out non-finite is skipped
  /// before it can touch the encoder weights (counted in
  /// `last_skipped_batches()`); training only fails outright when no
  /// batch at all could be applied.
  Result<double> Train(const std::vector<featgraph::FeatureGraph>& graphs,
                       const std::vector<std::vector<double>>& labels,
                       Rng* rng);

  /// One gradient pass over a single batch; exposed for tests and the
  /// incremental-learning phase. Returns the batch loss. Non-finite
  /// losses or gradients surface as `Status::Internal` *before* the
  /// optimizer step, so a poisoned batch never corrupts the encoder.
  /// `fault_key` keys the deterministic `gnn.dml.*` fault sites.
  Result<double> TrainBatch(
      const std::vector<const featgraph::FeatureGraph*>& batch,
      const std::vector<const std::vector<double>*>& labels,
      uint64_t fault_key = 0);

  /// Number of batches the most recent Train() call skipped because of
  /// non-finite losses or gradients.
  int last_skipped_batches() const { return last_skipped_batches_; }

 private:
  GinEncoder* encoder_;
  DmlConfig config_;
  std::unique_ptr<nn::Adam> optimizer_;
  int last_skipped_batches_ = 0;
};

}  // namespace autoce::gnn

#endif  // AUTOCE_GNN_METRIC_LEARNING_H_
