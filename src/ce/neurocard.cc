#include "ce/neurocard.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "engine/executor.h"
#include "engine/join_sampler.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/logging.h"

namespace autoce::ce {

void AutoregressiveModel::Init(std::vector<ColumnSpec> columns,
                               const Params& params, Rng* rng) {
  columns_ = std::move(columns);
  params_ = params;
  for (auto& c : columns_) {
    c.num_bins = std::min(params_.max_bins, std::max(1, c.domain));
  }
  size_t d = static_cast<size_t>(params_.embedding_dim);
  size_t h = static_cast<size_t>(params_.hidden);
  trunk_ = std::make_unique<nn::Mlp>(std::vector<size_t>{d, h, h},
                                     nn::Activation::kRelu,
                                     nn::Activation::kRelu, rng);
  heads_.clear();
  embeddings_.clear();
  embedding_grads_.clear();
  for (const auto& c : columns_) {
    heads_.emplace_back(
        std::vector<size_t>{h, static_cast<size_t>(c.num_bins)},
        nn::Activation::kIdentity, nn::Activation::kIdentity, rng);
    embeddings_.push_back(
        nn::Matrix::Xavier(static_cast<size_t>(c.num_bins), d, rng));
    embedding_grads_.emplace_back(static_cast<size_t>(c.num_bins), d, 0.0);
  }
  train_rng_ = rng->Fork(77);
}

int AutoregressiveModel::BinOf(size_t col, int32_t value) const {
  const ColumnSpec& c = columns_[col];
  int32_t v = std::clamp(value, 1, c.domain);
  return static_cast<int>((static_cast<int64_t>(v) - 1) * c.num_bins /
                          c.domain);
}

double AutoregressiveModel::BinCoverage(size_t col, int b, int32_t lo,
                                        int32_t hi) const {
  const ColumnSpec& c = columns_[col];
  int64_t lo_b = static_cast<int64_t>(b) * c.domain / c.num_bins + 1;
  int64_t hi_b = static_cast<int64_t>(b + 1) * c.domain / c.num_bins;
  if (hi_b < lo_b) return 0.0;
  int64_t ov_lo = std::max<int64_t>(lo, lo_b);
  int64_t ov_hi = std::min<int64_t>(hi, hi_b);
  if (ov_hi < ov_lo) return 0.0;
  return static_cast<double>(ov_hi - ov_lo + 1) /
         static_cast<double>(hi_b - lo_b + 1);
}

nn::Matrix AutoregressiveModel::Logits(size_t col, const nn::Matrix& context,
                                       nn::MlpTrace* trunk_trace,
                                       nn::MlpTrace* head_trace) const {
  nn::Matrix hidden = trunk_->Forward(context, trunk_trace);
  return heads_[col].Forward(hidden, head_trace);
}

void AutoregressiveModel::Train(
    const std::vector<std::vector<int32_t>>& rows) {
  if (rows.empty() || columns_.empty()) return;
  size_t d = static_cast<size_t>(params_.embedding_dim);

  std::vector<nn::Matrix*> params = trunk_->Params();
  std::vector<nn::Matrix*> grads = trunk_->Grads();
  for (size_t c = 0; c < columns_.size(); ++c) {
    auto hp = heads_[c].Params();
    auto hg = heads_[c].Grads();
    params.insert(params.end(), hp.begin(), hp.end());
    grads.insert(grads.end(), hg.begin(), hg.end());
    params.push_back(&embeddings_[c]);
    grads.push_back(&embedding_grads_[c]);
  }
  nn::Adam opt(params, grads, params_.learning_rate, 0.9, 0.999, 1e-8, 5.0);

  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t batch = 16;
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    train_rng_.Shuffle(&order);
    for (size_t start = 0; start < order.size(); start += batch) {
      size_t end = std::min(start + batch, order.size());
      trunk_->ZeroGrad();
      for (size_t c = 0; c < columns_.size(); ++c) {
        heads_[c].ZeroGrad();
        embedding_grads_[c].Zero();
      }
      for (size_t i = start; i < end; ++i) {
        const auto& row = rows[order[i]];
        nn::Matrix ctx(1, d, 0.0);
        std::vector<int> bins(columns_.size());
        for (size_t c = 0; c < columns_.size(); ++c) {
          bins[c] = BinOf(c, row[c]);
        }
        for (size_t c = 0; c < columns_.size(); ++c) {
          nn::MlpTrace trunk_trace, head_trace;
          nn::Matrix logits = Logits(c, ctx, &trunk_trace, &head_trace);
          auto loss = nn::SoftmaxCrossEntropyLoss(
              logits, {static_cast<size_t>(bins[c])});
          nn::Matrix g_hidden = heads_[c].Backward(head_trace, loss.grad);
          nn::Matrix g_ctx = trunk_->Backward(trunk_trace, g_hidden);
          // Context is the sum of previous columns' embeddings: the
          // gradient flows equally to each contributing embedding row.
          for (size_t p = 0; p < c; ++p) {
            for (size_t k = 0; k < d; ++k) {
              embedding_grads_[p](static_cast<size_t>(bins[p]), k) +=
                  g_ctx(0, k);
            }
          }
          // Advance the context with the true bin's embedding.
          for (size_t k = 0; k < d; ++k) {
            ctx(0, k) += embeddings_[c](static_cast<size_t>(bins[c]), k);
          }
        }
      }
      opt.Step();
    }
  }
}

double AutoregressiveModel::EstimateSelectivity(
    const std::vector<int32_t>& lo, const std::vector<int32_t>& hi,
    const std::vector<char>& constrained, int num_samples, Rng* rng) const {
  if (columns_.empty()) return 1.0;
  // Progressive sampling can stop after the last constrained column: the
  // remaining conditionals marginalize to 1.
  size_t last = 0;
  bool any = false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (constrained[c]) {
      last = c;
      any = true;
    }
  }
  if (!any) return 1.0;

  // Coverage is sample-independent. A constrained column that covers no
  // bin stops every sample before it draws there, so it caps the number
  // of draws a sample makes (the budget).
  std::vector<std::vector<double>> coverage(last + 1);
  size_t budget = last + 1;
  for (size_t c = 0; c <= last; ++c) {
    if (!constrained[c]) continue;
    bool covers = false;
    for (int b = 0; b < columns_[c].num_bins; ++b) {
      coverage[c].push_back(BinCoverage(c, b, lo[c], hi[c]));
      covers = covers || coverage[c].back() != 0.0;
    }
    if (!covers && budget > last) budget = c;
  }

  // Samples draw Uniform() in sample-major order. Each batch pre-draws a
  // full budget per sample (plus room for the last sample to overrun it)
  // and keeps the samples up to the first one that drew a different
  // number; the stream is then rewound to just past the true draws and
  // the rest re-run, so the estimate and the generator's final state
  // equal those of one-sample-at-a-time sampling.
  const size_t n = static_cast<size_t>(std::max(num_samples, 0));
  std::vector<double> weights;
  weights.reserve(n);
  std::vector<double> uniforms;
  while (weights.size() < n) {
    const Rng::State start = rng->SaveState();
    const size_t count = n - weights.size();
    uniforms.resize(count * budget + (last + 1 - budget));
    for (double& u : uniforms) u = rng->Uniform();
    const size_t drawn =
        SampleBatch(coverage, budget, count, uniforms, &weights);
    if (drawn != uniforms.size()) {
      rng->RestoreState(start);
      for (size_t i = 0; i < drawn; ++i) rng->Next();
    }
  }
  double total = 0.0;
  for (double w : weights) total += w;
  return total / static_cast<double>(num_samples);
}

size_t AutoregressiveModel::SampleBatch(
    const std::vector<std::vector<double>>& coverage, size_t budget,
    size_t count, const std::vector<double>& uniforms,
    std::vector<double>* weights) const {
  const size_t d = static_cast<size_t>(params_.embedding_dim);
  const size_t last = coverage.size() - 1;
  std::vector<double> weight(count, 1.0);
  std::vector<size_t> draws(count, last + 1);
  // Samples that chose the same bins so far share one context row: their
  // contexts are the same sums in the same order, so one forward serves
  // them all. `group[s]` is the row of sample s; `live` is in sample
  // order.
  std::vector<size_t> group(count, 0);
  std::vector<size_t> live(count);
  for (size_t s = 0; s < count; ++s) live[s] = s;
  nn::Matrix ctx(1, d, 0.0);
  for (size_t c = 0; c <= last && !live.empty(); ++c) {
    nn::Matrix probs = nn::Softmax(Logits(c, ctx, nullptr, nullptr));
    const size_t groups = probs.rows();
    const size_t bins = probs.cols();
    const bool masked = !coverage[c].empty();
    // Running sums of each row's (masked) distribution; the last one is
    // the row's mass.
    for (size_t g = 0; g < groups; ++g) {
      double acc = 0.0;
      for (size_t b = 0; b < bins; ++b) {
        acc += masked ? probs(g, b) * coverage[c][b] : probs(g, b);
        probs(g, b) = acc;
      }
    }
    std::vector<size_t> child(groups * bins, SIZE_MAX);
    std::vector<size_t> parent, chosen_bin;
    size_t kept = 0;
    for (size_t s : live) {
      const size_t g = group[s];
      const double* cum = &probs(g, 0);
      double u = uniforms[s * budget + c];
      if (masked) {
        const double mass = cum[bins - 1];
        weight[s] *= mass;
        if (mass <= 0.0) {
          weight[s] = 0.0;
          draws[s] = c;
          // A short sample ends the batch: later samples re-run.
          if (c < budget) break;
          continue;
        }
        u *= mass;
      }
      size_t chosen = bins - 1;
      for (size_t b = 0; b < bins; ++b) {
        if (cum[b] >= u) {
          chosen = b;
          break;
        }
      }
      size_t& next = child[g * bins + chosen];
      if (next == SIZE_MAX) {
        next = parent.size();
        parent.push_back(g);
        chosen_bin.push_back(chosen);
      }
      group[s] = next;
      live[kept++] = s;
    }
    live.resize(kept);
    nn::Matrix next_ctx(parent.size(), d);
    for (size_t g = 0; g < parent.size(); ++g) {
      for (size_t k = 0; k < d; ++k) {
        next_ctx(g, k) =
            ctx(parent[g], k) + embeddings_[c](chosen_bin[g], k);
      }
    }
    ctx = std::move(next_ctx);
  }
  size_t kept = 0, drawn = 0;
  while (kept < count) {
    drawn += draws[kept];
    weights->push_back(weight[kept]);
    if (draws[kept++] != budget) break;
  }
  return drawn;
}

NeuroCardEstimator::NeuroCardEstimator(const ModelTrainingScale& scale)
    : scale_(scale) {}

Status NeuroCardEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr) {
    return Status::InvalidArgument("NeuroCard requires a dataset");
  }
  dataset_ = ctx.dataset;
  Rng rng(ctx.seed);
  sample_rng_ = rng.Fork(11);

  // Column layout: all non-key columns of all tables in schema order.
  std::vector<AutoregressiveModel::ColumnSpec> specs;
  column_index_.assign(static_cast<size_t>(dataset_->NumTables()), {});
  for (int t = 0; t < dataset_->NumTables(); ++t) {
    const data::Table& tab = dataset_->table(t);
    column_index_[static_cast<size_t>(t)].assign(
        static_cast<size_t>(tab.NumColumns()), -1);
    for (int c = 0; c < tab.NumColumns(); ++c) {
      bool is_key = (c == tab.primary_key);
      for (const auto& fk : dataset_->foreign_keys()) {
        if (fk.fk_table == t && fk.fk_column == c) is_key = true;
      }
      if (is_key) continue;
      column_index_[static_cast<size_t>(t)][static_cast<size_t>(c)] =
          static_cast<int>(specs.size());
      AutoregressiveModel::ColumnSpec spec;
      spec.table = t;
      spec.column = c;
      spec.domain = tab.columns[static_cast<size_t>(c)].domain_size;
      specs.push_back(spec);
    }
  }

  AutoregressiveModel::Params params;
  params.hidden = scale_.hidden;
  model_.Init(specs, params, &rng);

  // Training sample: rows of the full join (all tables, all FK edges),
  // or plain table rows for a single-table dataset.
  std::vector<int> all_tables;
  for (int t = 0; t < dataset_->NumTables(); ++t) all_tables.push_back(t);
  auto sampler = engine::JoinSampler::Create(dataset_, all_tables,
                                             dataset_->foreign_keys());
  if (!sampler.ok()) return sampler.status();

  join_model_.Build(*dataset_);
  join_sizes_.clear();
  std::vector<std::vector<int32_t>> train_rows;
  int want = scale_.join_sample_rows;
  train_rows.reserve(static_cast<size_t>(want));
  for (int i = 0; i < want; ++i) {
    auto tuple = sampler->Sample(&rng);
    if (tuple.empty()) break;
    std::vector<int32_t> row(model_.columns().size());
    for (size_t ci = 0; ci < model_.columns().size(); ++ci) {
      const auto& spec = model_.columns()[ci];
      size_t pos = 0;
      for (size_t k = 0; k < all_tables.size(); ++k) {
        if (all_tables[k] == spec.table) pos = k;
      }
      row[ci] = dataset_->table(spec.table)
                    .columns[static_cast<size_t>(spec.column)]
                    .values[static_cast<size_t>(tuple[pos])];
    }
    train_rows.push_back(std::move(row));
  }
  model_.Train(train_rows);
  return Status::OK();
}

double NeuroCardEstimator::JoinSizeOf(const query::Query& q) {
  // NeuroCard only knows the size of the *full* join it trained on;
  // table-subset queries are downscaled through per-edge average
  // fan-outs. The multiplicative approximation (exact only when
  // fan-outs are attribute-independent) is precisely the real system's
  // multi-table bias.
  uint32_t mask = 0;
  for (int t : q.tables) mask |= 1u << t;
  auto it = join_sizes_.find(mask);
  if (it != join_sizes_.end()) return it->second;
  query::Query unfiltered;
  unfiltered.tables = q.tables;
  unfiltered.joins = q.joins;
  double size = join_model_.UnfilteredJoinSize(unfiltered);
  join_sizes_[mask] = size;
  return size;
}

double NeuroCardEstimator::PredicateSelectivity(const query::Query& q) {
  size_t n = model_.columns().size();
  std::vector<int32_t> lo(n, 1), hi(n, 1);
  std::vector<char> constrained(n, 0);
  for (size_t c = 0; c < n; ++c) hi[c] = model_.columns()[c].domain;
  for (const auto& p : q.predicates) {
    int idx = column_index_[static_cast<size_t>(p.table)]
                           [static_cast<size_t>(p.column)];
    if (idx < 0) continue;  // predicate on a key column: not modeled
    size_t c = static_cast<size_t>(idx);
    lo[c] = std::max(lo[c], p.lo);
    hi[c] = std::min(hi[c], p.hi);
    constrained[c] = 1;
  }
  return model_.EstimateSelectivity(lo, hi, constrained,
                                    scale_.progressive_samples, &sample_rng_);
}

double NeuroCardEstimator::EstimateCardinality(const query::Query& q) {
  if (dataset_ == nullptr || q.tables.empty()) return 1.0;
  double size = JoinSizeOf(q);
  if (size <= 0.0) return 0.0;
  return size * PredicateSelectivity(q);
}

UaeEstimator::UaeEstimator(const ModelTrainingScale& scale)
    : NeuroCardEstimator(scale) {}

Status UaeEstimator::Train(const TrainContext& ctx) {
  AUTOCE_RETURN_NOT_OK(NeuroCardEstimator::Train(ctx));
  // Query-driven phase: least-squares calibration in log space against
  // the training workload (substitutes differentiable sampling).
  calib_a_ = 1.0;
  calib_b_ = 0.0;
  if (ctx.train_queries == nullptr || ctx.train_cards == nullptr ||
      ctx.train_queries->empty()) {
    return Status::OK();
  }
  size_t n = std::min<size_t>(ctx.train_queries->size(), 200);
  std::vector<double> xs, ys;
  xs.reserve(n);
  ys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double est = NeuroCardEstimator::EstimateCardinality(
        (*ctx.train_queries)[i]);
    xs.push_back(std::log(std::max(est, 1.0)));
    ys.push_back(std::log(std::max((*ctx.train_cards)[i], 1.0)));
  }
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  if (sxx > 1e-9) {
    calib_a_ = sxy / sxx;
    calib_b_ = my - calib_a_ * mx;
    // Keep calibration conservative: a in [0.5, 1.5].
    calib_a_ = std::clamp(calib_a_, 0.5, 1.5);
  }
  return Status::OK();
}

double UaeEstimator::EstimateCardinality(const query::Query& q) {
  double base = NeuroCardEstimator::EstimateCardinality(q);
  double log_est = std::log(std::max(base, 1.0));
  return std::exp(calib_a_ * log_est + calib_b_);
}

}  // namespace autoce::ce
