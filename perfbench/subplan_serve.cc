// subplan_serve: a closed loop of multi-table queries. Each of 36
// datasets (3-5 tables, skewed fan-out) hosts one model trained in
// set-up behind an fss::EstimatorService: LW-XGB (cheap inference),
// MSCN (medium) or NeuroCard (expensive), 12 datasets each. Every query runs
// JoinOrderOptimizer::Optimize(q, service) -> PlanExecutor::Execute,
// with the service's observer folding executor truth back into the
// knowledge store, and each service commits its knowledge every
// kCommitEvery of its queries. A fixed share of the stream re-sends
// earlier queries, so the knowledge and cache tiers answer part of the
// lookups and the model the rest.
//
// The stream is played in epochs of kEpochQueries queries, each against
// freshly opened services (empty knowledge and cache): how warm the
// tiers get is then a property of the stream, not of how many queries a
// fast or slow host manages in the measured time.
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ce/estimator.h"
#include "data/generator.h"
#include "engine/executor.h"
#include "engine/histogram.h"
#include "engine/optimizer.h"
#include "engine/plan_executor.h"
#include "fss/estimator_service.h"
#include "query/query.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using autoce::Rng;
using Scope = SpanRecorder::Scope;
namespace ce = autoce::ce;
namespace data = autoce::data;
namespace engine = autoce::engine;
namespace fss = autoce::fss;
namespace query = autoce::query;

constexpr int kDatasets = 36;
constexpr int kTrainQueries = 120;
constexpr size_t kPoolQueries = 100;  ///< fresh multi-table queries per dataset
constexpr int kEpochQueries = 3600;
constexpr double kRepeatShare = 0.5;
constexpr int kCommitEvery = 64;
constexpr int kGatePrefix = 60;
constexpr size_t kCostQueries = 300;
constexpr int kSetupRepeats = 3;
/// Queries with a subplan larger than this are left out, so every join
/// order finishes far inside the executor's intermediate-row cap and no
/// query fails for its size.
constexpr int64_t kMaxJoinRows = 500'000;
constexpr uint64_t kDataStream = 11;
constexpr uint64_t kQueryStream = 12;
constexpr uint64_t kTrainStream = 13;

constexpr ce::ModelId kModels[3] = {ce::ModelId::kLwXgb, ce::ModelId::kMscn,
                                    ce::ModelId::kNeuroCard};
constexpr const char* kInferSpans[3] = {"ce.infer.lw_xgb", "ce.infer.mscn",
                                        "ce.infer.neurocard"};
constexpr const char* kModelKeys[3] = {"lw_xgb", "mscn", "neurocard"};

/// Timing shim around a hosted estimator the tenant owns: one ce.infer
/// span per EstimateCardinality call.
class TimedModel : public ce::CardinalityEstimator {
 public:
  TimedModel(ce::CardinalityEstimator* inner, const char* span)
      : inner_(inner), span_(span) {}
  ce::ModelId id() const override { return inner_->id(); }
  bool is_data_driven() const override { return inner_->is_data_driven(); }
  autoce::Status Train(const ce::TrainContext& ctx) override {
    return inner_->Train(ctx);
  }
  double EstimateCardinality(const query::Query& q) override {
    Scope s(span_);
    return inner_->EstimateCardinality(q);
  }
  void SeedInference(uint64_t seed) override { inner_->SeedInference(seed); }

 private:
  ce::CardinalityEstimator* inner_;
  const char* span_;
};

/// Forwards the optimizer's subplan lookups to the service, one
/// fss.estimate span per EstimateSubplan call.
class TimedSource : public engine::CardinalitySource {
 public:
  explicit TimedSource(fss::EstimatorService* service) : service_(service) {}
  double EstimateSubplan(const query::Query& q) override {
    Scope s("fss.estimate");
    return service_->EstimateSubplan(q);
  }

 private:
  fss::EstimatorService* service_;
};

/// One dataset with its query pool, trained model and serving stack.
/// Heap-allocated: the service, optimizer and executor point at `ds`.
struct Tenant {
  data::Dataset ds;
  int model_index = 0;
  std::vector<query::Query> pool;
  std::vector<int64_t> truth;  ///< true COUNT(*) of each pool query
  std::unique_ptr<ce::CardinalityEstimator> model;
  std::unique_ptr<engine::JoinOrderOptimizer> optimizer;
  std::unique_ptr<engine::PlanExecutor> executor;
  std::string store_dir;
  std::unique_ptr<fss::EstimatorService> service;
  std::unique_ptr<TimedSource> source;
  int served = 0;
  bool trained = false;
};

/// Unfiltered join size of every connected multi-table subset of the
/// dataset's tables, keyed by table bitmask. Predicates only shrink a
/// join, so this bounds every subplan over that table set.
std::map<uint32_t, int64_t> JoinSizes(const data::Dataset& ds) {
  query::Query all;
  for (int t = 0; t < ds.NumTables(); ++t) all.tables.push_back(t);
  all.joins = ds.foreign_keys();
  std::map<uint32_t, int64_t> sizes;
  for (uint32_t mask = 1; mask < (1u << ds.NumTables()); ++mask) {
    if (std::popcount(mask) < 2) continue;
    std::vector<int> tables;
    for (int t = 0; t < ds.NumTables(); ++t) {
      if ((mask >> t) & 1u) tables.push_back(t);
    }
    if (!ds.IsConnected(tables)) continue;
    auto card = engine::TrueCardinality(
        ds, engine::JoinOrderOptimizer::SubQuery(all, tables));
    sizes[mask] = card.ok() ? *card : INT64_MAX;
  }
  return sizes;
}

/// True when no connected subplan of `q` can materialize more than
/// kMaxJoinRows rows. The unfiltered join sizes decide most queries; a
/// query over a table set that could exceed the bound is counted
/// subplan by subplan, predicates included.
bool BoundedJoins(const data::Dataset& ds, const query::Query& q,
                  const std::map<uint32_t, int64_t>& sizes) {
  const size_t n = q.tables.size();
  std::vector<std::vector<int>> risky;
  for (uint32_t sub = 1; sub < (1u << n); ++sub) {
    uint32_t mask = 0;
    std::vector<int> tables;
    for (size_t i = 0; i < n; ++i) {
      if ((sub >> i) & 1u) {
        mask |= 1u << q.tables[i];
        tables.push_back(q.tables[i]);
      }
    }
    auto it = sizes.find(mask);
    if (it != sizes.end() && it->second > kMaxJoinRows) risky.push_back(tables);
  }
  for (const auto& tables : risky) {
    auto card = engine::TrueCardinality(
        ds, engine::JoinOrderOptimizer::SubQuery(q, tables));
    if (!card.ok() || *card > kMaxJoinRows) return false;
  }
  return true;
}

/// Builds tenant d: data, workload, truth and the trained model. A pure
/// function of (seed, d), so tenants build in parallel.
std::unique_ptr<Tenant> MakeTenant(uint64_t seed, int d) {
  auto owned = std::make_unique<Tenant>();
  Tenant& t = *owned;
  Rng rng(SubSeed(seed, kDataStream, static_cast<uint64_t>(d)));
  data::DatasetGenParams gen = CorpusParams();
  gen.name = "tenant_" + std::to_string(d);
  // Models cycle L,M,N and table counts 3,4,5 per block of three, so
  // every model is hosted on every schema size four times.
  gen.min_tables = gen.max_tables = 3 + (d / 3) % 3;
  gen.min_columns = 2;
  gen.max_columns = 4;
  gen.min_rows = 500;
  gen.max_rows = 12000;
  gen.max_fanout_skew = 6.0;
  t.ds = data::GenerateDataset(gen, &rng);
  t.model_index = d % 3;

  Rng qrng(SubSeed(seed, kQueryStream, static_cast<uint64_t>(d)));
  query::WorkloadParams wp;
  wp.num_queries = kTrainQueries + 8 * static_cast<int>(kPoolQueries);
  wp.max_tables = 5;
  std::vector<query::Query> all = query::GenerateWorkload(t.ds, wp, &qrng);
  std::vector<query::Query> train(all.begin(), all.begin() + kTrainQueries);
  // Equal quotas per join size (2..T tables), interleaved so that every
  // prefix of the pool covers all join sizes: the cost mix of the stream
  // then depends little on the seed.
  const std::map<uint32_t, int64_t> sizes = JoinSizes(t.ds);
  const size_t max_k = static_cast<size_t>(t.ds.NumTables());
  const size_t quota = kPoolQueries / (max_k - 1);
  std::vector<std::vector<std::pair<query::Query, int64_t>>> by_k(max_k + 1);
  for (size_t i = kTrainQueries; i < all.size(); ++i) {
    const size_t k = all[i].tables.size();
    if (k < 2 || by_k[k].size() >= quota || !BoundedJoins(t.ds, all[i], sizes)) {
      continue;
    }
    auto card = engine::TrueCardinality(t.ds, all[i]);
    if (card.ok()) by_k[k].emplace_back(all[i], *card);
  }
  for (size_t j = 0; j < quota; ++j) {
    for (size_t k = 2; k <= max_k; ++k) {
      if (j >= by_k[k].size()) continue;
      t.pool.push_back(by_k[k][j].first);
      t.truth.push_back(by_k[k][j].second);
    }
  }
  std::vector<double> train_cards = engine::TrueCardinalities(t.ds, train);

  t.model = ce::CreateModel(kModels[t.model_index], ce::ModelTrainingScale::Fast());
  ce::TrainContext ctx;
  ctx.dataset = &t.ds;
  ctx.train_queries = &train;
  ctx.train_cards = &train_cards;
  ctx.seed = SubSeed(seed, kTrainStream, static_cast<uint64_t>(d));
  t.trained = t.model->Train(ctx).ok();
  t.optimizer = std::make_unique<engine::JoinOrderOptimizer>(&t.ds);
  t.executor = std::make_unique<engine::PlanExecutor>(&t.ds);
  return owned;
}

void AddStats(const fss::ServiceStats& s, fss::ServiceStats* sum) {
  sum->lookups += s.lookups;
  sum->knowledge_hits += s.knowledge_hits;
  sum->cache_hits += s.cache_hits;
  sum->model_estimates += s.model_estimates;
  sum->fallbacks += s.fallbacks;
}

/// Replaces the tenant's service with a fresh one (empty knowledge and
/// cache) over a new store directory, adding the counters of the one it
/// closes to `closed`.
void OpenService(Tenant* t, const std::string& store_dir,
                 fss::ServiceStats* closed, Report* report) {
  if (t->service) AddStats(t->service->stats(), closed);
  t->source.reset();
  t->service.reset();
  if (!t->store_dir.empty()) std::filesystem::remove_all(t->store_dir);
  t->store_dir = store_dir;
  t->served = 0;
  auto service = fss::EstimatorService::Open(
      store_dir,
      std::make_unique<TimedModel>(t->model.get(), kInferSpans[t->model_index]),
      &t->ds);
  report->CountOp("open", !service.ok());
  if (!service.ok()) return;
  t->service = std::move(*service);
  t->source = std::make_unique<TimedSource>(t->service.get());
  fss::EstimatorService* svc = t->service.get();
  t->executor->set_subplan_observer([svc](const query::Query& q, int64_t rows) {
    Scope s("fss.observe");
    svc->ObserveTrueCardinality(q, rows);
  });
}

/// The deterministic per-epoch query stream: datasets with a non-empty
/// pool round-robin; with probability kRepeatShare an earlier query of
/// that dataset is re-sent, otherwise the next fresh pool query.
class QueryStream {
 public:
  QueryStream(uint64_t seed, const std::vector<std::unique_ptr<Tenant>>& tenants)
      : rng_(SubSeed(seed, kQueryStream, 1000)), next_(tenants.size(), 0),
        sent_(tenants.size()) {
    for (size_t d = 0; d < tenants.size(); ++d) {
      pool_sizes_.push_back(tenants[d]->pool.size());
      if (!tenants[d]->pool.empty()) active_.push_back(static_cast<int>(d));
    }
  }

  bool empty() const { return active_.empty(); }

  /// Requires !empty().
  std::pair<int, size_t> Next() {
    const int d = active_[count_++ % active_.size()];
    std::vector<size_t>& sent = sent_[static_cast<size_t>(d)];
    size_t q;
    if (rng_.Bernoulli(kRepeatShare) && !sent.empty()) {
      q = sent[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(sent.size()) - 1))];
    } else {
      q = next_[static_cast<size_t>(d)]++ % pool_sizes_[static_cast<size_t>(d)];
      sent.push_back(q);
    }
    return {d, q};
  }

 private:
  Rng rng_;
  uint64_t count_ = 0;
  std::vector<size_t> next_;
  std::vector<std::vector<size_t>> sent_;
  std::vector<size_t> pool_sizes_;
  std::vector<int> active_;
};

struct QueryOutcome {
  bool ok = false;
  std::unique_ptr<engine::PlanNode> plan;
  double qerror = 0.0;  ///< served root estimate vs executor truth
};

/// One query: the timed operation.
QueryOutcome RunQuery(Tenant* t, size_t qi, Report* report) {
  Scope op("op");
  QueryOutcome out;
  if (!t->service) return out;
  const query::Query& q = t->pool[qi];
  autoce::Result<std::unique_ptr<engine::PlanNode>> plan =
      autoce::Status::Internal("not planned");
  {
    Scope s("engine.optimize");
    plan = t->optimizer->Optimize(q, t->source.get());
  }
  if (!plan.ok()) return out;
  engine::ExecutionResult result;
  {
    Scope s("engine.execute");
    result = t->executor->Execute(q, **plan);
  }
  out.plan = std::move(*plan);
  out.ok = result.completed && result.output_rows == t->truth[qi];
  const double est = out.plan->estimated_cardinality + 1.0;
  const double real = static_cast<double>(result.output_rows) + 1.0;
  out.qerror = std::max(est / real, real / est);
  if (++t->served % kCommitEvery == 0) {
    Scope s("fss.commit");
    report->CountOp("commit", !t->service->CommitKnowledge().ok());
  }
  return out;
}

/// Cost of a plan under true cardinalities (the optimizer's own cost
/// model fed exact counts).
double TrueCost(const data::Dataset& ds, const engine::PlanNode& p,
                const query::Query& q) {
  engine::CostModel cm;
  if (p.kind == engine::PlanNode::Kind::kScan) {
    return cm.scan_cost_per_row * static_cast<double>(ds.table(p.table).NumRows());
  }
  auto card = [&](const std::vector<int>& tables) {
    auto r = engine::TrueCardinality(
        ds, engine::JoinOrderOptimizer::SubQuery(q, tables));
    return r.ok() ? static_cast<double>(*r) : 0.0;
  };
  return TrueCost(ds, *p.left, q) + TrueCost(ds, *p.right, q) +
         cm.build_cost_per_row * card(p.right->Tables()) +
         cm.probe_cost_per_row * card(p.left->Tables()) +
         cm.output_cost_per_row * card(p.Tables());
}

}  // namespace

void RunSubplanServe(const Options& opts, Report* report) {
  std::vector<std::unique_ptr<Tenant>> tenants;
  fss::ServiceStats closed;  // counters of services already replaced
  int epoch = 0;
  auto new_epoch = [&]() {
    for (size_t d = 0; d < tenants.size(); ++d) {
      OpenService(tenants[d].get(),
                  opts.workdir + "/fss_e" + std::to_string(epoch) + "_d" +
                      std::to_string(d),
                  &closed, report);
    }
    ++epoch;
    return QueryStream(opts.seed, tenants);
  };

  // The first kGatePrefix queries of every epoch are digested (plan
  // string and row count): they must not depend on the set-up
  // repetition, the pool size or the epoch.
  uint64_t gate_digest = 0;
  RunSetups(
      opts, kSetupRepeats,
      [&](int) {
        tenants = autoce::util::ParallelMap(0, kDatasets, 1, [&](size_t d) {
          return MakeTenant(opts.seed, static_cast<int>(d));
        });
        for (const auto& t : tenants) report->CountOp("train", !t->trained);
      },
      [&](int r) {
        QueryStream stream = new_epoch();
        Digest digest;
        for (int i = 0; i < kGatePrefix && !stream.empty(); ++i) {
          auto [d, qi] = stream.Next();
          Tenant& t = *tenants[static_cast<size_t>(d)];
          QueryOutcome out = RunQuery(&t, qi, report);
          report->CountOp("query", !out.ok);
          digest.Add(out.plan ? out.plan->ToString() : std::string("error"));
          digest.Add(static_cast<uint64_t>(t.truth[qi]));
        }
        if (r == 0) gate_digest = digest.value();
        report->ExpectSame("plans (set-up " + std::to_string(r) + ")",
                           gate_digest, digest.value());
      },
      report);
  report->AddDigest("plans", gate_digest);

  // Measured phase: epochs until the time is up.
  SpanRecorder& recorder = SpanRecorder::Instance();
  closed = fss::ServiceStats{};
  std::vector<double> op_ms, traced_ms, qerrors;
  struct Served {
    int d;
    size_t qi;
    std::unique_ptr<engine::PlanNode> plan;
  };
  std::vector<Served> for_cost;
  double busy = 0.0;
  uint64_t queries = 0;
  const double deadline = NowSeconds() + opts.seconds;
  while (NowSeconds() < deadline) {
    QueryStream stream = new_epoch();
    if (stream.empty()) {  // no dataset kept a query: nothing to serve
      report->CountOp("query", true);
      break;
    }
    Digest digest;
    for (int i = 0; i < kEpochQueries && NowSeconds() < deadline; ++i) {
      auto [d, qi] = stream.Next();
      Tenant& t = *tenants[static_cast<size_t>(d)];
      // Whole rounds over the datasets alternate traced and untraced.
      const bool traced = opts.trace && (i / kDatasets) % 2 == 1;
      recorder.set_enabled(traced);
      recorder.set_request(queries);
      double start = NowSeconds();
      QueryOutcome out = RunQuery(&t, qi, report);
      double ms = (NowSeconds() - start) * 1e3;
      recorder.set_enabled(false);
      ++queries;
      busy += ms / 1e3;
      (traced ? traced_ms : op_ms).push_back(ms);
      report->CountOp("query", !out.ok);
      if (i < kGatePrefix) {
        digest.Add(out.plan ? out.plan->ToString() : std::string("error"));
        digest.Add(static_cast<uint64_t>(t.truth[qi]));
        if (i == kGatePrefix - 1) {
          report->ExpectSame("plans (epoch " + std::to_string(epoch) + ")",
                             gate_digest, digest.value());
        }
      }
      if (!out.plan) continue;
      qerrors.push_back(out.qerror);
      if (for_cost.size() < kCostQueries) {
        for_cost.push_back({d, qi, std::move(out.plan)});
      }
    }
  }
  fss::ServiceStats totals = closed;
  for (const auto& t : tenants) {
    if (t->service) AddStats(t->service->stats(), &totals);
  }

  AddLatencyMetrics(op_ms, busy, "query", "queries_per_s", report);

  // Plan quality, after the timed phase: true-cardinality cost of the
  // served plans over that of the histogram plans for the same queries.
  double served_cost = 0.0, histogram_cost = 0.0;
  for (const Served& s : for_cost) {
    Tenant& t = *tenants[static_cast<size_t>(s.d)];
    const query::Query& q = t.pool[s.qi];
    engine::PostgresStyleEstimator pg(&t.ds);
    auto hist = t.optimizer->Optimize(
        q, [&](const query::Query& sub) { return pg.EstimateCardinality(sub); });
    if (!hist.ok()) continue;
    served_cost += TrueCost(t.ds, *s.plan, q);
    histogram_cost += TrueCost(t.ds, **hist, q);
  }
  report->AddNamed("plan_cost_ratio",
                   histogram_cost > 0 ? served_cost / histogram_cost : 0.0,
                   "ratio", static_cast<int64_t>(for_cost.size()));
  report->AddNamed("served_qerror_p95", Pct(qerrors, 95), "ratio",
                   static_cast<int64_t>(qerrors.size()));

  if (!opts.trace) return;
  TraceAnalysis trace(recorder.spans());
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  auto optimize_self = trace.SelfTimes("engine.optimize");
  auto execute = trace.Durations("engine.execute");
  auto estimate = trace.Durations("fss.estimate");
  auto observe = trace.Durations("fss.observe");
  auto commit = trace.Durations("fss.commit");
  report->AddLayer("engine.optimize_self_us", Pct(optimize_self, 50) * 1e6, "us",
                   n(optimize_self));
  report->AddLayer("engine.execute_ms_p50", Pct(execute, 50) * 1e3, "ms",
                   n(execute));
  report->AddLayer("engine.execute_ms_p99", Pct(execute, 99) * 1e3, "ms",
                   n(execute));
  report->AddLayer("fss.estimate_us_p50", Pct(estimate, 50) * 1e6, "us",
                   n(estimate));
  report->AddLayer("fss.estimate_us_p99", Pct(estimate, 99) * 1e6, "us",
                   n(estimate));
  // Tier shares over the whole measured phase, traced or not.
  const double lookups = static_cast<double>(totals.lookups);
  auto share = [&](uint64_t hits) {
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  };
  const int64_t n_lookups = static_cast<int64_t>(totals.lookups);
  report->AddLayer("fss.lookups_per_query",
                   queries ? lookups / static_cast<double>(queries) : 0.0, "count",
                   static_cast<int64_t>(queries));
  report->AddLayer("fss.knowledge_hit_ratio", share(totals.knowledge_hits),
                   "ratio", n_lookups);
  report->AddLayer("fss.cache_hit_ratio", share(totals.cache_hits), "ratio",
                   n_lookups);
  report->AddLayer("fss.model_ratio", share(totals.model_estimates), "ratio",
                   n_lookups);
  report->AddLayer("fss.fallback_ratio", share(totals.fallbacks), "ratio",
                   n_lookups);
  report->AddLayer("fss.observe_us", Pct(observe, 50) * 1e6, "us", n(observe));
  report->AddLayer("fss.commit_ms", Pct(commit, 50) * 1e3, "ms", n(commit));
  for (int m = 0; m < 3; ++m) {
    auto infer = trace.Durations(kInferSpans[m]);
    report->AddLayer(std::string("ce.infer_us_p50.") + kModelKeys[m],
                     Pct(infer, 50) * 1e6, "us", n(infer));
    report->AddLayer(std::string("ce.infer_us_p99.") + kModelKeys[m],
                     Pct(infer, 99) * 1e6, "us", n(infer));
  }
  AddTraceSummary(trace, traced_ms, op_ms, report);
}

}  // namespace perfbench
