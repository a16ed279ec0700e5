#include "advisor/autoce.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "knn/index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/stats.h"
#include "util/timer.h"

namespace autoce::advisor {

namespace {

/// Training instruments (DESIGN.md §5.9): per-chunk loss and held-out
/// validation D-error as gauges (last value = training frontier), chunk
/// count, skipped samples/batches, and checkpoint commit latency.
struct FitMetrics {
  obs::Gauge* chunk_loss;
  obs::Gauge* val_derror;
  obs::Gauge* best_val_derror;
  obs::Counter* chunks;
  obs::Counter* samples_skipped;
  obs::Counter* batches_skipped;
  obs::Histogram* checkpoint_ms;
  static const FitMetrics& Get() {
    static const FitMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return FitMetrics{reg.GetGauge("advisor.fit.chunk_loss"),
                        reg.GetGauge("advisor.fit.val_derror"),
                        reg.GetGauge("advisor.fit.best_val_derror"),
                        reg.GetCounter("advisor.fit.chunks"),
                        reg.GetCounter("advisor.fit.samples_skipped"),
                        reg.GetCounter("advisor.fit.batches_skipped"),
                        reg.GetHistogram("advisor.checkpoint_ms")};
    }();
    return m;
  }
};

/// The member indices of a neighbor list, in retrieval order.
std::vector<size_t> MemberIndices(const std::vector<knn::Neighbor>& hits) {
  std::vector<size_t> out;
  out.reserve(hits.size());
  for (const knn::Neighbor& nb : hits) out.push_back(nb.index);
  return out;
}

}  // namespace

AutoCe::AutoCe(AutoCeConfig config)
    : config_(std::move(config)),
      extractor_(config_.feature),
      rng_(config_.seed) {}

Status AutoCe::ValidateSample(const featgraph::FeatureGraph& graph,
                              const DatasetLabel& label,
                              size_t index) const {
  AUTOCE_RETURN_NOT_OK(
      featgraph::ValidateGraph(graph, extractor_.vertex_dim()));
  if (!nn::IsFinite(std::span<const double>(label.accuracy_score)) ||
      !nn::IsFinite(std::span<const double>(label.efficiency_score)) ||
      !nn::IsFinite(std::span<const double>(label.qerror_mean)) ||
      !nn::IsFinite(std::span<const double>(label.latency_ms))) {
    return Status::InvalidArgument("label for sample " +
                                   std::to_string(index) +
                                   " contains non-finite scores");
  }
  if (util::FaultPoint(util::fault_sites::kFitSample, index)) {
    return Status::Internal("injected sample fault at index " +
                            std::to_string(index));
  }
  return Status::OK();
}

Status AutoCe::Fit(const std::vector<featgraph::FeatureGraph>& graphs,
                   const std::vector<DatasetLabel>& labels) {
  if (graphs.size() != labels.size()) {
    return Status::InvalidArgument("graphs/labels size mismatch");
  }
  if (config_.validation_interval < 1) {
    return Status::InvalidArgument("validation_interval must be >= 1");
  }
  obs::TraceSpan span("advisor.fit");
  // Skip-and-report: a corrupt sample (bad graph shape, non-finite
  // features or scores) is dropped from the corpus instead of aborting
  // the fit; training only fails when too few valid samples remain.
  fit_report_ = FitReport{};
  fit_report_.samples_total = graphs.size();
  graphs_.clear();
  labels_.clear();
  for (size_t i = 0; i < graphs.size(); ++i) {
    Status st = ValidateSample(graphs[i], labels[i], i);
    if (!st.ok()) {
      ++fit_report_.samples_skipped;
      if (fit_report_.skipped_reasons.size() < 5) {
        fit_report_.skipped_reasons.push_back(st.ToString());
      }
      continue;
    }
    graphs_.push_back(graphs[i]);
    labels_.push_back(labels[i]);
  }
  if (fit_report_.samples_skipped > 0) {
    FitMetrics::Get().samples_skipped->Add(
        static_cast<int64_t>(fit_report_.samples_skipped));
    AUTOCE_LOG(Warning) << "Fit skipped " << fit_report_.samples_skipped
                        << "/" << fit_report_.samples_total
                        << " corrupt samples";
  }
  if (graphs_.size() < 4) {
    return Status::InvalidArgument(
        "need at least 4 valid labeled datasets (" +
        std::to_string(graphs_.size()) + " of " +
        std::to_string(graphs.size()) + " usable)");
  }
  // DML similarity labels: concatenated score vectors, centered on the
  // corpus mean. Centering matters: the efficiency components share a
  // large dataset-independent structure (the models' inherent latency
  // profile), which would saturate raw cosine similarity near 1 for all
  // pairs and starve the metric learner of negatives.
  label_mean_.assign(
      config_.training_weights.size() * ce::kNumModels, 0.0);
  for (const auto& label : labels_) {
    auto concat = label.ConcatScores(config_.training_weights);
    for (size_t i = 0; i < concat.size(); ++i) {
      label_mean_[i] += concat[i] / static_cast<double>(labels_.size());
    }
  }

  Rng init_rng = rng_.Fork(1);
  encoder_ = std::make_unique<gnn::GinEncoder>(extractor_.vertex_dim(),
                                               config_.gin, &init_rng);

  train_rng_ = rng_.Fork(2);
  cursor_ = TrainCursor{};
  // Train in chunks on an 80% split, checkpointing the encoder on the
  // D-error of a held-out 20% validation split. Validating on held-out
  // data (rather than leave-one-out over the training set) is what
  // detects embedding collapse: the contrastive objective pulls
  // training neighbors together *by label*, so training-set KNN keeps
  // improving even as generalization degrades.
  size_t n = graphs_.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng split_rng = rng_.Fork(7);
  split_rng.Shuffle(&order);
  // Clamp so the 80% side keeps >= 2 graphs: tiny corpora (possible
  // after Fit skipped corrupt samples) must still be trainable.
  size_t val_n = std::min(std::max<size_t>(4, n / 5), n - 2);
  cursor_.val_idx.assign(order.begin(),
                         order.begin() + static_cast<ptrdiff_t>(val_n));
  RefreshEmbeddings();
  cursor_.best_err = HoldOutDError(cursor_.val_idx);
  best_params_ = encoder_->SnapshotParams();
  cursor_.phase = FitPhase::kChunk;
  // Initial checkpoint (no-op without a store): a kill at any later
  // point resumes from here with every RNG stream already forked, so
  // the resumed run replays the same draws.
  AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
  return RunCheckpointedFit();
}

Status AutoCe::RunCheckpointedFit() {
  if (cursor_.phase == FitPhase::kChunk) {
    // Rebuild the 80% training split from the persisted validation
    // indices (the RCS order is stable across save/resume).
    size_t n = graphs_.size();
    std::vector<featgraph::FeatureGraph> fit_graphs;
    std::vector<std::vector<double>> fit_labels;
    {
      std::vector<char> is_val(n, 0);
      for (size_t i : cursor_.val_idx) {
        if (i < n) is_val[i] = 1;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!is_val[i]) {
          fit_graphs.push_back(graphs_[i]);
          fit_labels.push_back(BuildDmlLabel(labels_[i]));
        }
      }
    }
    gnn::DmlConfig chunk_cfg = config_.dml;
    chunk_cfg.epochs = config_.validation_interval;
    const FitMetrics& metrics = FitMetrics::Get();
    while (cursor_.trained_epochs < config_.dml.epochs) {
      obs::TraceSpan chunk_span("advisor.fit.chunk");
      gnn::DmlTrainer chunk_trainer(encoder_.get(), chunk_cfg);
      auto loss = chunk_trainer.Train(fit_graphs, fit_labels, &train_rng_);
      fit_report_.dml_batches_skipped += chunk_trainer.last_skipped_batches();
      if (chunk_trainer.last_skipped_batches() > 0) {
        metrics.batches_skipped->Add(
            static_cast<int64_t>(chunk_trainer.last_skipped_batches()));
      }
      if (!loss.ok()) return loss.status();
      cursor_.trained_epochs += chunk_cfg.epochs;
      RefreshEmbeddings();
      double err = HoldOutDError(cursor_.val_idx);
      if (err < cursor_.best_err) {
        cursor_.best_err = err;
        best_params_ = encoder_->SnapshotParams();
      }
      metrics.chunks->Add();
      metrics.chunk_loss->Set(*loss);
      metrics.val_derror->Set(err);
      metrics.best_val_derror->Set(cursor_.best_err);
      AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
    }
    encoder_->RestoreParams(best_params_);
    RefreshEmbeddings();
    cursor_.phase = FitPhase::kIncremental;
    AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
  }

  if (cursor_.phase == FitPhase::kIncremental) {
    if (config_.enable_incremental) {
      std::vector<nn::Matrix> pre_il = encoder_->SnapshotParams();
      AUTOCE_RETURN_NOT_OK(RunIncrementalLearning());
      if (HoldOutDError(cursor_.val_idx) > cursor_.best_err) {
        // Incremental training hurt the held-out error; keep the
        // augmented RCS but restore the better encoder.
        encoder_->RestoreParams(pre_il);
        RefreshEmbeddings();
      }
    }
    RefreshDriftThreshold();
    cursor_.phase = FitPhase::kDone;
    AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
  }
  return Status::OK();
}

double AutoCe::HoldOutDError(const std::vector<size_t>& val_idx) const {
  // Retrieval restricted to non-validation members: the same index the
  // recommendation path queries, with the split as an `allowed` mask
  // (unusable members are already excluded by the index itself).
  std::vector<char> allowed(graphs_.size(), 1);
  for (size_t i : val_idx) {
    if (i < allowed.size()) allowed[i] = 0;
  }
  double total = 0.0;
  int count = 0;
  std::vector<double> mean;
  for (size_t i : val_idx) {
    if (i >= graphs_.size() || !knn_index_.usable(i)) continue;
    std::vector<size_t> members = MemberIndices(
        knn_index_.Query(knn_index_.Point(i),
                         static_cast<size_t>(config_.knn_k),
                         /*exclude=*/SIZE_MAX, &allowed));
    if (members.empty()) continue;
    for (double w : config_.training_weights) {
      total += labels_[i].DError(ScoreMembers(members, w, &mean), w);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / count;
}

void AutoCe::RefreshEmbeddings() {
  // Embedding is a read-only scan of the encoder; each graph embeds
  // into its own slot.
  auto embeddings = util::ParallelMap(
      0, graphs_.size(), 1,
      [&](size_t i) { return encoder_->Embed(graphs_[i]); });
  std::vector<char> usable(embeddings.size());
  for (size_t i = 0; i < embeddings.size(); ++i) {
    usable[i] = nn::IsFinite(std::span<const double>(embeddings[i])) ? 1 : 0;
  }
  knn_index_ = knn::Index::Build(embeddings, std::move(usable));
}

void AutoCe::RefreshDriftThreshold() {
  // 90th percentile of each member's nearest-neighbor distance.
  std::vector<double> nn_dist;
  for (size_t i = 0; i < knn_index_.size(); ++i) {
    if (!knn_index_.usable(i)) continue;
    auto hits = knn_index_.Query(knn_index_.Point(i), 1, /*exclude=*/i);
    if (!hits.empty()) nn_dist.push_back(hits[0].distance);
  }
  drift_threshold_ = stats::Percentile(nn_dist, config_.drift_percentile);
}

std::vector<double> AutoCe::BuildDmlLabel(const DatasetLabel& label) const {
  auto concat = label.ConcatScores(config_.training_weights);
  AUTOCE_CHECK(concat.size() == label_mean_.size());
  for (size_t i = 0; i < concat.size(); ++i) concat[i] -= label_mean_[i];
  return concat;
}

ce::ModelId AutoCe::ScoreMembers(const std::vector<size_t>& members,
                                 double w_a,
                                 std::vector<double>* mean) const {
  mean->assign(ce::kNumModels, 0.0);
  for (size_t j : members) {
    auto s = labels_[j].ScoreVector(w_a);
    for (size_t m = 0; m < mean->size(); ++m) (*mean)[m] += s[m];
  }
  for (double& v : *mean) {
    v /= static_cast<double>(std::max<size_t>(1, members.size()));
  }
  size_t best = 0;
  for (size_t m = 1; m < mean->size(); ++m) {
    if ((*mean)[m] > (*mean)[best]) best = m;
  }
  return static_cast<ce::ModelId>(best);
}

Status AutoCe::RunIncrementalLearning() {
  // Algorithm 2: cross-validated feedback collection + Mixup.
  size_t n = graphs_.size();
  size_t folds = std::min<size_t>(static_cast<size_t>(config_.incremental_folds),
                                  n);
  if (folds < 2) return Status::OK();

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng fold_rng = rng_.Fork(3);
  fold_rng.Shuffle(&order);

  std::vector<size_t> feedback, reference;
  std::vector<double> mean;
  for (size_t i = 0; i < n; ++i) {
    size_t idx = order[i];
    // Validation fold of `idx` excludes its whole fold from the RCS; for
    // simplicity and per the spirit of Alg. 2 we exclude the sample
    // itself (leave-one-out within folds behaves identically at our
    // corpus sizes).
    std::vector<size_t> members = MemberIndices(knn_index_.Query(
        knn_index_.Point(idx), static_cast<size_t>(config_.knn_k), idx));
    // Mean D-error across the supported weight combinations.
    double d_err = 0.0;
    for (double w : config_.training_weights) {
      d_err += labels_[idx].DError(ScoreMembers(members, w, &mean), w);
    }
    d_err /= static_cast<double>(config_.training_weights.size());
    (d_err > config_.d_error_threshold ? feedback : reference).push_back(idx);
  }

  if (feedback.empty() || reference.empty()) return Status::OK();

  std::vector<featgraph::FeatureGraph> new_graphs = graphs_;
  std::vector<DatasetLabel> new_labels = labels_;

  if (config_.enable_augmentation) {
    Rng mix_rng = rng_.Fork(4);
    for (size_t idx : feedback) {
      // Nearest reference neighbor in embedding space.
      double best_d = 1e300;
      size_t best_j = reference[0];
      for (size_t j : reference) {
        double d =
            nn::EuclideanDistance(knn_index_.Point(idx), knn_index_.Point(j));
        if (d < best_d) {
          best_d = d;
          best_j = j;
        }
      }
      double lambda = mix_rng.Beta(config_.mixup_alpha, config_.mixup_beta);
      featgraph::FeatureGraph mixed_graph =
          featgraph::MixupGraphs(graphs_[idx], graphs_[best_j], lambda);
      DatasetLabel mixed_label =
          DatasetLabel::Mixup(labels_[idx], labels_[best_j], lambda);
      new_graphs.push_back(std::move(mixed_graph));
      new_labels.push_back(mixed_label);
    }
  }
  std::vector<std::vector<double>> new_dml_labels;
  for (const DatasetLabel& label : new_labels) {
    new_dml_labels.push_back(BuildDmlLabel(label));
  }

  // Incremental training on original + synthetic data.
  gnn::DmlConfig inc_cfg = config_.dml;
  inc_cfg.epochs = config_.incremental_epochs;
  gnn::DmlTrainer inc_trainer(encoder_.get(), inc_cfg);
  Rng inc_rng = rng_.Fork(5);
  auto loss = inc_trainer.Train(new_graphs, new_dml_labels, &inc_rng);
  fit_report_.dml_batches_skipped += inc_trainer.last_skipped_batches();
  if (!loss.ok()) return loss.status();

  // Synthetic samples also join the RCS (they carry valid labels).
  graphs_ = std::move(new_graphs);
  labels_ = std::move(new_labels);
  RefreshEmbeddings();
  return Status::OK();
}

std::vector<double> AutoCe::Embed(
    const featgraph::FeatureGraph& graph) const {
  AUTOCE_CHECK(encoder_ != nullptr);
  return encoder_->Embed(graph);
}

std::vector<std::vector<double>> AutoCe::EmbedBatch(
    const std::vector<const featgraph::FeatureGraph*>& graphs) const {
  AUTOCE_CHECK(encoder_ != nullptr);
  return encoder_->EmbedBatch(graphs);
}

AutoCe::Recommendation AutoCe::CorpusDefault(double w_a,
                                             std::string reason) const {
  // The same default the drift detector hands an out-of-distribution
  // dataset: ignore the (unusable) embedding geometry and pick the
  // model that scores best on average over the whole RCS.
  Recommendation rec;
  rec.degraded = true;
  rec.degraded_reason = std::move(reason);
  std::vector<size_t> all(labels_.size());
  std::iota(all.begin(), all.end(), 0);
  rec.model = ScoreMembers(all, w_a, &rec.score_vector);
  return rec;
}

Result<AutoCe::Recommendation> AutoCe::Recommend(
    const featgraph::FeatureGraph& graph, double w_a) const {
  if (encoder_ == nullptr || knn_index_.size() == 0) {
    return Status::FailedPrecondition("advisor is not fitted");
  }
  AUTOCE_RETURN_NOT_OK(
      featgraph::ValidateGraph(graph, extractor_.vertex_dim()));
  return RecommendFromEmbedding(encoder_->Embed(graph), w_a);
}

Result<AutoCe::Recommendation> AutoCe::RecommendFromEmbedding(
    std::span<const double> target, double w_a) const {
  if (encoder_ == nullptr || knn_index_.size() == 0) {
    return Status::FailedPrecondition("advisor is not fitted");
  }
  if (target.size() != encoder_->embedding_dim()) {
    return Status::InvalidArgument("embedding dimension mismatch");
  }
  std::vector<double> embedding(target.begin(), target.end());
  if (util::FaultPoint(
          util::fault_sites::kRecommendEmbed,
          util::FaultKeyFromDoubles(embedding.data(), embedding.size()))) {
    std::fill(embedding.begin(), embedding.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  if (!nn::IsFinite(std::span<const double>(embedding))) {
    return CorpusDefault(w_a, "non-finite target embedding");
  }
  Recommendation rec;
  rec.neighbors = MemberIndices(
      knn_index_.Query(embedding, static_cast<size_t>(config_.knn_k)));
  if (rec.neighbors.empty()) {
    return CorpusDefault(w_a, "no usable RCS embedding");
  }
  rec.model = ScoreMembers(rec.neighbors, w_a, &rec.score_vector);
  return rec;
}

Result<AutoCe::Recommendation> AutoCe::RecommendDataset(
    const data::Dataset& dataset, double w_a) const {
  AUTOCE_RETURN_NOT_OK(dataset.Validate());
  return Recommend(extractor_.Extract(dataset), w_a);
}

double AutoCe::DistanceToRcs(const featgraph::FeatureGraph& graph) const {
  AUTOCE_CHECK(encoder_ != nullptr && knn_index_.size() > 0);
  // A dataset we cannot even embed (non-finite embedding: no hits) is
  // by definition out of distribution; infinity trips every drift
  // threshold.
  auto hits = knn_index_.Query(encoder_->Embed(graph), 1);
  if (hits.empty()) return std::numeric_limits<double>::infinity();
  return hits[0].distance;
}

bool AutoCe::IsOutOfDistribution(
    const featgraph::FeatureGraph& graph) const {
  return DistanceToRcs(graph) > drift_threshold_;
}

Status AutoCe::AddLabeledSample(const featgraph::FeatureGraph& graph,
                                const DatasetLabel& label) {
  return AddLabeledSamples({graph}, {label});
}

Status AutoCe::AddLabeledSamples(
    const std::vector<featgraph::FeatureGraph>& graphs,
    const std::vector<DatasetLabel>& labels) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("advisor is not fitted");
  }
  if (graphs.size() != labels.size()) {
    return Status::InvalidArgument("graph/label count mismatch");
  }
  if (graphs.empty()) return Status::OK();
  // All-or-nothing validation before any mutation; the fault keys match
  // the insertion indices sequential AddLabeledSample calls would use.
  for (size_t i = 0; i < graphs.size(); ++i) {
    AUTOCE_RETURN_NOT_OK(ValidateSample(graphs[i], labels[i],
                                        graphs_.size() + i));
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    graphs_.push_back(graphs[i]);
    labels_.push_back(labels[i]);

    if (config_.online_update_epochs > 0) {
      // Fine-tune with a few DML epochs over the updated corpus.
      std::vector<std::vector<double>> dml_labels;
      for (const DatasetLabel& label : labels_) {
        dml_labels.push_back(BuildDmlLabel(label));
      }
      gnn::DmlConfig cfg = config_.dml;
      cfg.epochs = config_.online_update_epochs;
      gnn::DmlTrainer tuner(encoder_.get(), cfg);
      Rng tune_rng = rng_.Fork(graphs_.size());
      auto loss = tuner.Train(graphs_, dml_labels, &tune_rng);
      if (!loss.ok()) return loss.status();
    }
  }
  RefreshEmbeddings();
  RefreshDriftThreshold();
  // Online updates are durable too: each accepted batch commits a new
  // snapshot generation (no-op without a store).
  return CommitCheckpoint();
}

double AutoCe::EvaluateMeanDError(
    const std::vector<featgraph::FeatureGraph>& graphs,
    const std::vector<DatasetLabel>& labels, double w_a) const {
  AUTOCE_CHECK(graphs.size() == labels.size());
  std::vector<double> errs;
  for (size_t i = 0; i < graphs.size(); ++i) {
    auto rec = Recommend(graphs[i], w_a);
    if (!rec.ok()) continue;
    errs.push_back(labels[i].DError(rec->model, w_a));
  }
  return stats::Mean(errs);
}

namespace {

constexpr uint32_t kMagic = 0x41434531;  // "ACE1"
// Version 2 added per-model `failed` flags to each RCS label. Version 3
// pinned the encoding to little-endian with fixed widths (byte-swapped
// on big-endian hosts); the layout is unchanged, so v2 files written on
// little-endian machines — all of them in practice — still load.
constexpr uint32_t kVersion = 3;

void WriteMatrix(BinaryWriter* w, const nn::Matrix& m) {
  w->WriteU64(m.rows());
  w->WriteU64(m.cols());
  // Mirrors WriteDoubles' framing (u64 count + little-endian payload)
  // without materializing a temporary vector — checkpoints serialize
  // every encoder matrix, so the copy is worth avoiding.
  w->WriteU64(m.size());
  if constexpr (std::endian::native == std::endian::little) {
    w->WriteBytes(m.data(), m.size() * sizeof(double));
  } else {
    for (size_t i = 0; i < m.size(); ++i) w->WriteDouble(m.data()[i]);
  }
}

Result<nn::Matrix> ReadMatrix(BinaryReader* r) {
  uint64_t rows = r->ReadU64();
  uint64_t cols = r->ReadU64();
  std::vector<double> data = r->ReadDoubles();
  if (!r->status().ok()) return r->status();
  uint64_t size = 0;
  if (__builtin_mul_overflow(rows, cols, &size) || data.size() != size) {
    return Status::DataLoss("matrix payload size mismatch");
  }
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < data.size(); ++i) m.data()[i] = data[i];
  return m;
}

/// Deserialized configs must be validated BEFORE constructing an AutoCe:
/// the constructor (and the feature extractor inside it) enforces these
/// invariants with AUTOCE_CHECK, which would turn a corrupt file into a
/// process abort instead of a clean Status.
Status ValidateLoadedConfig(const AutoCeConfig& config) {
  if (config.feature.max_columns < 1 || config.gin.num_layers < 1 ||
      config.gin.hidden < 1 || config.gin.embedding_dim < 1 ||
      config.knn_k < 1 || config.training_weights.empty() ||
      config.validation_interval < 1) {
    return Status::DataLoss("model config is corrupt");
  }
  return Status::OK();
}

}  // namespace

void AutoCe::WriteRcs(BinaryWriter* w) const {
  w->WriteU64(graphs_.size());
  for (size_t i = 0; i < graphs_.size(); ++i) {
    w->WriteString(graphs_[i].dataset_name);
    WriteMatrix(w, graphs_[i].vertices);
    WriteMatrix(w, graphs_[i].edges);
    const DatasetLabel& label = labels_[i];
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      w->WriteDouble(label.accuracy_score[m]);
      w->WriteDouble(label.efficiency_score[m]);
      w->WriteDouble(label.qerror_mean[m]);
      w->WriteDouble(label.latency_ms[m]);
      w->WriteU32(label.failed[m] ? 1 : 0);
    }
  }
  w->WriteDoubles(label_mean_);
}

Status AutoCe::ReadRcs(BinaryReader* r) {
  uint64_t n = r->ReadU64();
  AUTOCE_RETURN_NOT_OK(r->status());
  for (uint64_t i = 0; i < n; ++i) {
    featgraph::FeatureGraph g;
    g.dataset_name = r->ReadString();
    AUTOCE_ASSIGN_OR_RETURN(g.vertices, ReadMatrix(r));
    AUTOCE_ASSIGN_OR_RETURN(g.edges, ReadMatrix(r));
    // Every RCS member passed this gate when it was added; a member
    // that fails it now is corrupt, and the encoder would abort on it.
    Status valid = featgraph::ValidateGraph(g, extractor_.vertex_dim());
    if (!valid.ok()) return Status::DataLoss(valid.message());
    DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = r->ReadDouble();
      label.efficiency_score[m] = r->ReadDouble();
      label.qerror_mean[m] = r->ReadDouble();
      label.latency_ms[m] = r->ReadDouble();
      label.failed[m] = r->ReadU32() != 0;
    }
    graphs_.push_back(std::move(g));
    labels_.push_back(label);
  }
  label_mean_ = r->ReadDoubles();
  AUTOCE_RETURN_NOT_OK(r->status());
  if (label_mean_.size() !=
      config_.training_weights.size() * static_cast<size_t>(ce::kNumModels)) {
    return Status::DataLoss("centering vector size mismatch");
  }
  return Status::OK();
}

void AutoCe::WriteEncoder(BinaryWriter* w) const {
  auto params = const_cast<gnn::GinEncoder*>(encoder_.get())->Params();
  w->WriteU64(params.size());
  for (const nn::Matrix* p : params) WriteMatrix(w, *p);
}

Status AutoCe::ReadEncoder(BinaryReader* r) {
  Rng init_rng(1);
  encoder_ = std::make_unique<gnn::GinEncoder>(extractor_.vertex_dim(),
                                               config_.gin, &init_rng);
  auto params = encoder_->Params();
  uint64_t num_params = r->ReadU64();
  AUTOCE_RETURN_NOT_OK(r->status());
  if (num_params != params.size()) {
    return Status::DataLoss("encoder parameter count mismatch");
  }
  for (nn::Matrix* p : params) {
    AUTOCE_ASSIGN_OR_RETURN(nn::Matrix m, ReadMatrix(r));
    if (!m.SameShape(*p)) {
      return Status::DataLoss("encoder parameter shape mismatch");
    }
    *p = std::move(m);
  }
  return Status::OK();
}

Status AutoCe::Save(const std::string& path) const {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("cannot save an unfitted advisor");
  }
  BinaryWriter w(path);
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);

  // Config (the parts inference depends on).
  w.WriteU32(static_cast<uint32_t>(config_.feature.max_columns));
  w.WriteU32(static_cast<uint32_t>(config_.gin.num_layers));
  w.WriteU32(static_cast<uint32_t>(config_.gin.hidden));
  w.WriteU32(static_cast<uint32_t>(config_.gin.embedding_dim));
  w.WriteU32(static_cast<uint32_t>(config_.knn_k));
  w.WriteDouble(config_.drift_percentile);
  w.WriteDoubles(config_.training_weights);

  // The body is byte-for-byte the `rcs` then the `encoder` snapshot
  // section.
  WriteRcs(&w);
  WriteEncoder(&w);
  return w.Close();
}

Result<AutoCe> AutoCe::Load(const std::string& path) {
  BinaryReader r(path);
  if (!r.status().ok()) return r.status();
  if (r.ReadU32() != kMagic) {
    return Status::InvalidArgument("not an AutoCE model file: " + path);
  }
  uint32_t version = r.ReadU32();
  if (version != 2 && version != kVersion) {
    return Status::InvalidArgument("unsupported model file version " +
                                   std::to_string(version));
  }

  AutoCeConfig config;
  config.feature.max_columns = static_cast<int>(r.ReadU32());
  config.gin.num_layers = static_cast<int>(r.ReadU32());
  config.gin.hidden = static_cast<int>(r.ReadU32());
  config.gin.embedding_dim = static_cast<int>(r.ReadU32());
  config.knn_k = static_cast<int>(r.ReadU32());
  config.drift_percentile = r.ReadDouble();
  config.training_weights = r.ReadDoubles();
  if (!r.status().ok()) return r.status();
  AUTOCE_RETURN_NOT_OK(ValidateLoadedConfig(config));

  AutoCe advisor(config);
  AUTOCE_RETURN_NOT_OK(advisor.ReadRcs(&r));
  AUTOCE_RETURN_NOT_OK(advisor.ReadEncoder(&r));
  advisor.RefreshEmbeddings();
  advisor.RefreshDriftThreshold();
  return advisor;
}

// ---------------------------------------------------------------------------
// Crash-safe snapshots and resumable training (DESIGN.md Sec. 5.7).

namespace {

constexpr uint32_t kSnapshotFormatVersion = 1;
constexpr char kSecConfig[] = "config";
constexpr char kSecRcs[] = "rcs";
constexpr char kSecEncoder[] = "encoder";
constexpr char kSecBest[] = "best";
constexpr char kSecRng[] = "rng";
constexpr char kSecCursor[] = "cursor";

void WriteRngState(BinaryWriter* w, const Rng::State& s) {
  for (uint64_t v : s.s) w->WriteU64(v);
  w->WriteU32(s.has_cached_gaussian ? 1 : 0);
  w->WriteDouble(s.cached_gaussian);
}

Rng::State ReadRngState(BinaryReader* r) {
  Rng::State s;
  for (auto& v : s.s) v = r->ReadU64();
  s.has_cached_gaussian = r->ReadU32() != 0;
  s.cached_gaussian = r->ReadDouble();
  return s;
}

using util::Fnv1a;

uint64_t DigestMatrix(const nn::Matrix& m, uint64_t h) {
  uint64_t dims[2] = {static_cast<uint64_t>(m.rows()),
                      static_cast<uint64_t>(m.cols())};
  h = Fnv1a(dims, sizeof(dims), h);
  return Fnv1a(m.data(), m.size() * sizeof(double), h);
}

const util::SnapshotSection* FindSection(
    const std::vector<util::SnapshotSection>& sections, const char* name) {
  for (const auto& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

Status AutoCe::EnableSnapshots(const std::string& dir,
                               util::SnapshotStoreOptions options) {
  AUTOCE_ASSIGN_OR_RETURN(util::SnapshotStore store,
                          util::SnapshotStore::Open(dir, options));
  store_ = std::make_unique<util::SnapshotStore>(std::move(store));
  return Status::OK();
}

Status AutoCe::SaveSnapshot() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "no snapshot store attached (call EnableSnapshots first)");
  }
  return CommitCheckpoint();
}

Status AutoCe::CommitCheckpoint() {
  if (store_ == nullptr) return Status::OK();
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("cannot snapshot an unfitted advisor");
  }
  // Mid-training checkpoints are recomputable (resuming from an older
  // generation replays to the same bits), so they skip the fsyncs and
  // keep checkpoint overhead off the training loop. Once the model is
  // done its loss WOULD lose information — the final commit (and every
  // online update, which runs with phase == kDone) is fully durable.
  util::CommitDurability durability = cursor_.phase == FitPhase::kDone
                                          ? util::CommitDurability::kSync
                                          : util::CommitDurability::kLazy;
  obs::TraceSpan span("advisor.checkpoint");
  Timer commit_timer;
  AUTOCE_ASSIGN_OR_RETURN(uint64_t generation,
                          store_->Commit(BuildSnapshotSections(), durability));
  FitMetrics::Get().checkpoint_ms->Observe(commit_timer.ElapsedMillis());
  util::KillPoint(util::kill_sites::kAdvisorCheckpoint, generation);
  return Status::OK();
}

std::vector<util::SnapshotSection> AutoCe::BuildSnapshotSections() const {
  std::vector<util::SnapshotSection> sections;
  {
    BinaryWriter w;
    w.WriteU32(kSnapshotFormatVersion);
    w.WriteI64(config_.feature.max_columns);
    w.WriteI64(config_.gin.num_layers);
    w.WriteI64(config_.gin.hidden);
    w.WriteI64(config_.gin.embedding_dim);
    w.WriteI64(config_.dml.epochs);
    w.WriteI64(config_.dml.batch_size);
    w.WriteDouble(config_.dml.tau);
    w.WriteDouble(config_.dml.gamma);
    w.WriteDouble(config_.dml.learning_rate);
    w.WriteDouble(config_.dml.clip_norm);
    w.WriteU32(static_cast<uint32_t>(config_.dml.loss));
    w.WriteI64(config_.knn_k);
    w.WriteDoubles(config_.training_weights);
    w.WriteU32(config_.enable_incremental ? 1 : 0);
    w.WriteU32(config_.enable_augmentation ? 1 : 0);
    w.WriteDouble(config_.d_error_threshold);
    w.WriteI64(config_.incremental_folds);
    w.WriteDouble(config_.mixup_alpha);
    w.WriteDouble(config_.mixup_beta);
    w.WriteI64(config_.incremental_epochs);
    w.WriteI64(config_.validation_interval);
    w.WriteDouble(config_.drift_percentile);
    w.WriteI64(config_.online_update_epochs);
    w.WriteU64(config_.seed);
    sections.push_back({kSecConfig, w.buffer()});
  }
  {
    BinaryWriter w;
    WriteRcs(&w);
    sections.push_back({kSecRcs, w.buffer()});
  }
  {
    BinaryWriter w;
    WriteEncoder(&w);
    sections.push_back({kSecEncoder, w.buffer()});
  }
  {
    BinaryWriter w;
    w.WriteU64(best_params_.size());
    for (const nn::Matrix& m : best_params_) WriteMatrix(&w, m);
    sections.push_back({kSecBest, w.buffer()});
  }
  {
    BinaryWriter w;
    WriteRngState(&w, rng_.SaveState());
    WriteRngState(&w, train_rng_.SaveState());
    sections.push_back({kSecRng, w.buffer()});
  }
  {
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(cursor_.phase));
    w.WriteI64(cursor_.trained_epochs);
    w.WriteDouble(cursor_.best_err);
    w.WriteU64(cursor_.val_idx.size());
    for (size_t i : cursor_.val_idx) w.WriteU64(i);
    sections.push_back({kSecCursor, w.buffer()});
  }
  return sections;
}

Result<AutoCe> AutoCe::FromSnapshotSections(
    const std::vector<util::SnapshotSection>& sections) {
  // Snapshots written before the optimizer moments were dropped also
  // carry an `optimizer` section; no reader needs it, so it is skipped.
  const char* required[] = {kSecConfig, kSecRcs, kSecEncoder,
                            kSecBest,   kSecRng, kSecCursor};
  for (const char* name : required) {
    if (FindSection(sections, name) == nullptr) {
      return Status::DataLoss(std::string("snapshot is missing section '") +
                              name + "'");
    }
  }

  AutoCeConfig config;
  {
    const auto* sec = FindSection(sections, kSecConfig);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint32_t fmt = r.ReadU32();
    if (r.status().ok() && fmt != kSnapshotFormatVersion) {
      return Status::InvalidArgument("unsupported snapshot format version " +
                                     std::to_string(fmt));
    }
    config.feature.max_columns = static_cast<int>(r.ReadI64());
    config.gin.num_layers = static_cast<int>(r.ReadI64());
    config.gin.hidden = static_cast<int>(r.ReadI64());
    config.gin.embedding_dim = static_cast<int>(r.ReadI64());
    config.dml.epochs = static_cast<int>(r.ReadI64());
    config.dml.batch_size = static_cast<int>(r.ReadI64());
    config.dml.tau = r.ReadDouble();
    config.dml.gamma = r.ReadDouble();
    config.dml.learning_rate = r.ReadDouble();
    config.dml.clip_norm = r.ReadDouble();
    config.dml.loss = static_cast<gnn::ContrastiveLoss>(r.ReadU32());
    config.knn_k = static_cast<int>(r.ReadI64());
    config.training_weights = r.ReadDoubles();
    config.enable_incremental = r.ReadU32() != 0;
    config.enable_augmentation = r.ReadU32() != 0;
    config.d_error_threshold = r.ReadDouble();
    config.incremental_folds = static_cast<int>(r.ReadI64());
    config.mixup_alpha = r.ReadDouble();
    config.mixup_beta = r.ReadDouble();
    config.incremental_epochs = static_cast<int>(r.ReadI64());
    config.validation_interval = static_cast<int>(r.ReadI64());
    config.drift_percentile = r.ReadDouble();
    config.online_update_epochs = static_cast<int>(r.ReadI64());
    config.seed = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    AUTOCE_RETURN_NOT_OK(ValidateLoadedConfig(config));
  }

  AutoCe advisor(config);
  {
    const auto* sec = FindSection(sections, kSecRcs);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    AUTOCE_RETURN_NOT_OK(advisor.ReadRcs(&r));
  }
  {
    const auto* sec = FindSection(sections, kSecEncoder);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    AUTOCE_RETURN_NOT_OK(advisor.ReadEncoder(&r));
  }

  {
    const auto* sec = FindSection(sections, kSecBest);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint64_t count = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    for (uint64_t i = 0; i < count; ++i) {
      AUTOCE_ASSIGN_OR_RETURN(nn::Matrix m, ReadMatrix(&r));
      advisor.best_params_.push_back(std::move(m));
    }
  }

  {
    const auto* sec = FindSection(sections, kSecRng);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    advisor.rng_.RestoreState(ReadRngState(&r));
    advisor.train_rng_.RestoreState(ReadRngState(&r));
    AUTOCE_RETURN_NOT_OK(r.status());
  }

  {
    const auto* sec = FindSection(sections, kSecCursor);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint32_t phase = r.ReadU32();
    if (r.status().ok() && phase > static_cast<uint32_t>(FitPhase::kDone)) {
      return Status::DataLoss("snapshot cursor has invalid phase " +
                              std::to_string(phase));
    }
    advisor.cursor_.phase = static_cast<FitPhase>(phase);
    advisor.cursor_.trained_epochs = static_cast<int>(r.ReadI64());
    advisor.cursor_.best_err = r.ReadDouble();
    uint64_t vn = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    if (vn > r.remaining() / sizeof(uint64_t)) {
      return Status::DataLoss("snapshot cursor val_idx exceeds payload");
    }
    advisor.cursor_.val_idx.reserve(vn);
    for (uint64_t i = 0; i < vn; ++i) {
      advisor.cursor_.val_idx.push_back(static_cast<size_t>(r.ReadU64()));
    }
    AUTOCE_RETURN_NOT_OK(r.status());
  }

  advisor.fit_report_ = FitReport{};
  advisor.fit_report_.samples_total = advisor.graphs_.size();
  advisor.RefreshEmbeddings();
  advisor.RefreshDriftThreshold();
  return advisor;
}

Result<AutoCe> AutoCe::ResumeFit(const std::string& dir,
                                 util::SnapshotStoreOptions options,
                                 uint64_t* generation_out) {
  AUTOCE_ASSIGN_OR_RETURN(util::SnapshotStore store,
                          util::SnapshotStore::Open(dir, options));
  uint64_t generation = 0;
  AUTOCE_ASSIGN_OR_RETURN(std::vector<util::SnapshotSection> sections,
                          store.LoadLatest(&generation));
  AUTOCE_ASSIGN_OR_RETURN(AutoCe advisor, FromSnapshotSections(sections));
  advisor.store_ = std::make_unique<util::SnapshotStore>(std::move(store));
  if (advisor.cursor_.phase != FitPhase::kDone) {
    AUTOCE_LOG(Info) << "resuming interrupted fit from snapshot generation "
                     << generation;
    AUTOCE_RETURN_NOT_OK(advisor.RunCheckpointedFit());
  }
  if (generation_out != nullptr) *generation_out = generation;
  return advisor;
}

uint64_t AutoCe::ModelDigest() const {
  uint64_t h = util::kFnvOffsetBasis;
  uint64_t n = graphs_.size();
  h = Fnv1a(&n, sizeof(n), h);
  for (size_t i = 0; i < graphs_.size(); ++i) {
    const featgraph::FeatureGraph& g = graphs_[i];
    h = Fnv1a(g.dataset_name.data(), g.dataset_name.size(), h);
    h = DigestMatrix(g.vertices, h);
    h = DigestMatrix(g.edges, h);
    const DatasetLabel& label = labels_[i];
    h = Fnv1a(label.accuracy_score.data(),
              label.accuracy_score.size() * sizeof(double), h);
    h = Fnv1a(label.efficiency_score.data(),
              label.efficiency_score.size() * sizeof(double), h);
    h = Fnv1a(label.qerror_mean.data(),
              label.qerror_mean.size() * sizeof(double), h);
    h = Fnv1a(label.latency_ms.data(),
              label.latency_ms.size() * sizeof(double), h);
    h = Fnv1a(label.failed.data(), label.failed.size(), h);
  }
  h = Fnv1a(label_mean_.data(), label_mean_.size() * sizeof(double), h);
  if (encoder_ != nullptr) {
    auto params = const_cast<gnn::GinEncoder*>(encoder_.get())->Params();
    for (const nn::Matrix* p : params) h = DigestMatrix(*p, h);
  }
  h = Fnv1a(&drift_threshold_, sizeof(drift_threshold_), h);
  return h;
}

}  // namespace autoce::advisor
