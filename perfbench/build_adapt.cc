// build_adapt: the advisor's write path, as a closed loop of onboarding
// cycles. Each cycle builds from scratch — advisor::LabelCorpus over a
// generated corpus -> AutoCe::Fit -> SaveSnapshot — then opens an
// AdvisorServer and an AdaptationPipeline on that store, offers a
// stream of shifted datasets through MaybeEnqueue until kAdaptItems are
// admitted as out of distribution, and drains them with RunOnce (label
// -> Mixup -> fine-tune -> commit -> reload).
//
// Cycle c builds its own corpus and shifted stream from (seed, c), so a
// run's median cycle averages over several corpora instead of hinging on
// one. Cycle 0 is also run at the gate's second thread count and must
// reproduce the same model digests.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adapt/pipeline.h"
#include "advisor/label.h"
#include "data/generator.h"
#include "featgraph/featgraph.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Scope = SpanRecorder::Scope;
namespace adapt = autoce::adapt;
namespace advisor = autoce::advisor;
namespace data = autoce::data;
namespace featgraph = autoce::featgraph;
namespace serve = autoce::serve;

constexpr int kBuildDatasets = 10;
constexpr int kHoldOut = 6;        ///< per held-out set
constexpr int kAdaptItems = 3;     ///< admitted shifted datasets per cycle
constexpr int kCandidates = 24;    ///< shifted datasets on offer per cycle
constexpr size_t kAdaptBatch = 2;  ///< items per RunOnce
constexpr int kSetupRepeats = 3;
constexpr uint64_t kBuildStream = 21;
constexpr uint64_t kHoldStream = 22;
constexpr uint64_t kShiftStream = 23;
constexpr uint64_t kShiftHoldStream = 24;
constexpr uint64_t kLabelStream = 25;

/// The shifted distribution: more columns, wider domains and sparse
/// join correlation, far from what the build corpora cover.
data::DatasetGenParams ShiftedParams() {
  data::DatasetGenParams p = CorpusParams();
  p.min_tables = 3;
  p.max_tables = 3;
  p.min_columns = 6;
  p.max_columns = 8;
  p.min_domain = 4000;
  p.max_domain = 8000;
  p.min_rows = 300;
  p.max_rows = 600;
  p.j_min = 0.02;
  p.j_max = 0.15;
  return p;
}

uint64_t LabelDigest(const advisor::LabeledCorpus& corpus,
                     const std::vector<double>& weights) {
  Digest d;
  for (const auto& label : corpus.labels) {
    for (double v : label.ConcatScores(weights)) d.Add(v);
  }
  return d.value();
}

double MeanDError(const advisor::AutoCe& model,
                  const advisor::LabeledCorpus& corpus,
                  const std::vector<double>& weights) {
  double sum = 0.0;
  for (double w : weights) {
    sum += model.EvaluateMeanDError(corpus.graphs, corpus.labels, w);
  }
  return sum / static_cast<double>(weights.size());
}

/// Held-out sets, labelled in set-up and scored after cycle 0.
struct HeldOut {
  advisor::LabeledCorpus hold;        ///< in-distribution
  advisor::LabeledCorpus shift_hold;  ///< shifted distribution
};

struct CycleResult {
  uint64_t build_digest = 0;
  uint64_t adapt_digest = 0;
  double cycle_s = 0.0;  ///< the timed operation
  double build_s = 0.0;
  double adapt_s = 0.0;
  double d_error_mean = 0.0;
  double d_error_adapted = 0.0;
  int offered = 0;
  int admitted = 0;
  adapt::AdaptationStats stats;
};

/// Onboarding cycle `c` in a fresh store directory. Its inputs are
/// generated before the timed region; D-errors are scored after it.
CycleResult RunCycle(uint64_t seed, uint64_t c, const HeldOut& held,
                     const std::string& dir, Report* report) {
  const std::vector<double> weights = AdvisorConfig().training_weights;
  const featgraph::FeatureExtractor fx;
  const uint64_t cycle_seed = SubSeed(seed, kBuildStream, c);
  std::vector<data::Dataset> build =
      SpreadCorpus(CorpusParams(), "build", kBuildDatasets, cycle_seed, kBuildStream);
  std::vector<data::Dataset> candidates =
      SpreadCorpus(ShiftedParams(), "shifted", kCandidates, cycle_seed, kShiftStream);
  std::filesystem::remove_all(dir);

  CycleResult out;
  auto fitted = std::make_unique<advisor::AutoCe>(AdvisorConfig());
  std::unique_ptr<serve::AdvisorServer> server;
  const double cycle_start = NowSeconds();
  {
    Scope op("op");
    advisor::LabeledCorpus labeled;
    {
      Scope s("advisor.label_corpus");
      labeled = advisor::LabelCorpus(
          std::move(build), LabelTestbed(SubSeed(cycle_seed, kLabelStream, 0)), fx);
    }
    for (const auto& label : labeled.labels) {
      report->CountOp("label", label.NumFailed() > 0);
    }
    autoce::Status st;
    {
      Scope s("advisor.fit");
      st = fitted->EnableSnapshots(dir);
      if (st.ok()) st = fitted->Fit(labeled.graphs, labeled.labels);
    }
    report->CountOp("fit", !st.ok());
    {
      Scope s("advisor.snapshot");
      st = fitted->SaveSnapshot();
    }
    report->CountOp("snapshot", !st.ok());
    out.build_digest = fitted->ModelDigest();
    out.build_s = NowSeconds() - cycle_start;

    {
      Scope s("serve.open");
      auto opened = serve::AdvisorServer::Open(dir);
      report->CountOp("open", !opened.ok());
      if (!opened.ok()) return out;
      server = std::move(*opened);
    }
    adapt::AdaptationConfig acfg;
    acfg.batch_size = kAdaptBatch;
    acfg.seed = cycle_seed;
    acfg.testbed = LabelTestbed(SubSeed(cycle_seed, kLabelStream, 1));
    std::unique_ptr<adapt::AdaptationPipeline> pipeline;
    {
      Scope s("adapt.open");
      auto opened = adapt::AdaptationPipeline::Open(dir, server.get(), acfg);
      report->CountOp("open", !opened.ok());
      if (!opened.ok()) return out;
      pipeline = std::move(*opened);
    }
    // Timing shim around the unchanged default labeler.
    adapt::Labeler labeler = adapt::TestbedLabeler(acfg.testbed);
    pipeline->set_labeler([labeler, report](const data::Dataset& ds, uint64_t s)
                              -> autoce::Result<advisor::DatasetLabel> {
      Scope span("adapt.label");
      auto label = labeler(ds, s);
      report->CountOp("label", !label.ok() || label->NumFailed() > 0);
      return label;
    });

    // The operator offers shifted datasets until kAdaptItems are
    // admitted, then waits for adaptation to absorb them.
    const double adapt_start = NowSeconds();
    for (const data::Dataset& ds : candidates) {
      if (out.admitted == kAdaptItems) break;
      featgraph::FeatureGraph graph;
      {
        Scope s("featgraph.extract", Cells(ds));
        graph = fx.Extract(ds);
      }
      adapt::Offered offered;
      {
        Scope s("adapt.enqueue");
        offered = pipeline->MaybeEnqueue(ds, graph);
      }
      ++out.offered;
      if (offered == adapt::Offered::kAdmitted ||
          offered == adapt::Offered::kAdmittedEvicting) {
        ++out.admitted;
      }
    }
    while (pipeline->queue().depth() > 0) {
      Scope s("adapt.run_once");
      auto batch = pipeline->RunOnce();
      report->CountOp("run_once", !batch.ok());
      if (!batch.ok()) break;
    }
    out.adapt_s = NowSeconds() - adapt_start;
    out.stats = pipeline->stats();
    out.adapt_digest = server->advisor()->ModelDigest();
    report->ExpectSame("server follows trainer", pipeline->TrainerDigest(),
                       out.adapt_digest);
  }
  out.cycle_s = NowSeconds() - cycle_start;
  // Every admitted item is applied or counted failed (sentinel label or
  // quarantine). An offer the drift detector does not admit is its
  // judgement, not a failure; adapt.admit_ratio reports it.
  const uint64_t bad = out.stats.labels_sentinel + out.stats.items_quarantined;
  for (int i = 0; i < out.admitted; ++i) {
    report->CountOp("adapt_item", static_cast<uint64_t>(i) < bad);
  }
  out.d_error_mean = MeanDError(*fitted, held.hold, weights);
  out.d_error_adapted = MeanDError(*server->advisor(), held.shift_hold, weights);
  return out;
}

}  // namespace

void RunBuildAdapt(const Options& opts, Report* report) {
  const std::vector<double> weights = AdvisorConfig().training_weights;
  const featgraph::FeatureExtractor fx;
  HeldOut held;
  uint64_t label_digest = 0;
  RunSetups(
      opts, kSetupRepeats,
      [&](int) {
        held.hold = advisor::LabelCorpus(
            SpreadCorpus(CorpusParams(), "hold", kHoldOut, opts.seed, kHoldStream),
            LabelTestbed(SubSeed(opts.seed, kLabelStream, 2)), fx);
        held.shift_hold = advisor::LabelCorpus(
            SpreadCorpus(ShiftedParams(), "shift_hold", kHoldOut, opts.seed,
                         kShiftHoldStream),
            LabelTestbed(SubSeed(opts.seed, kLabelStream, 3)), fx);
      },
      [&](int r) {
        Digest d;
        d.Add(LabelDigest(held.hold, weights));
        d.Add(LabelDigest(held.shift_hold, weights));
        if (r == 0) label_digest = d.value();
        report->ExpectSame("held-out labels (set-up " + std::to_string(r) + ")",
                           label_digest, d.value());
      },
      report);
  report->AddDigest("held_out_labels", label_digest);

  // Cycle 0 at the alternate thread count (untimed).
  SetThreads(opts.alt_threads);
  CycleResult gate = RunCycle(opts.seed, 0, held, opts.workdir + "/gate", report);
  SetThreads(opts.threads);
  std::filesystem::remove_all(opts.workdir + "/gate");
  report->AddDigest("model_after_build", gate.build_digest);
  report->AddDigest("model_after_adapt", gate.adapt_digest);

  SpanRecorder& recorder = SpanRecorder::Instance();
  std::vector<double> op_ms, traced_ms, build_s, adapt_s;
  std::vector<CycleResult> cycles;
  double busy = 0.0;
  const double deadline = NowSeconds() + opts.seconds;
  uint64_t c = 0;
  do {
    const bool traced = opts.trace && (c % 2 == 1);
    const std::string dir = opts.workdir + "/cycle" + std::to_string(c);
    recorder.set_enabled(traced);
    recorder.set_request(c);
    CycleResult r = RunCycle(opts.seed, c, held, dir, report);
    recorder.set_enabled(false);
    std::filesystem::remove_all(dir);
    if (c == 0) {
      report->ExpectSame("model after build (cycle 0)", gate.build_digest,
                         r.build_digest);
      report->ExpectSame("model after adapt (cycle 0)", gate.adapt_digest,
                         r.adapt_digest);
    }
    busy += r.cycle_s;
    (traced ? traced_ms : op_ms).push_back(r.cycle_s * 1e3);
    if (!traced) {
      build_s.push_back(r.build_s);
      adapt_s.push_back(r.adapt_s);
    }
    cycles.push_back(r);
    ++c;
    // The traced run needs a traced and an untraced cycle.
  } while (NowSeconds() < deadline || (opts.trace && c < 2));

  AddLatencyMetrics(op_ms, busy, "cycle", "cycles_per_s", report);
  report->AddNamed("build_s", Median(build_s), "s",
                   static_cast<int64_t>(build_s.size()));
  report->AddNamed("adapt_s", Median(adapt_s), "s",
                   static_cast<int64_t>(adapt_s.size()));
  report->AddNamed("d_error_mean", gate.d_error_mean, "ratio",
                   static_cast<int64_t>(held.hold.size() * weights.size()));
  report->AddNamed("d_error_adapted", gate.d_error_adapted, "ratio",
                   static_cast<int64_t>(held.shift_hold.size() * weights.size()));

  if (!opts.trace) return;
  TraceAnalysis trace(recorder.spans());
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  auto label_corpus = trace.Durations("advisor.label_corpus");
  auto fit = trace.Durations("advisor.fit");
  auto snapshot = trace.Durations("advisor.snapshot");
  auto enqueue = trace.Durations("adapt.enqueue");
  auto label = trace.Durations("adapt.label");
  auto run_once = trace.Durations("adapt.run_once");
  auto apply = trace.SelfTimes("adapt.run_once");
  report->AddLayer("advisor.label_corpus_s", Median(label_corpus), "s",
                   n(label_corpus));
  report->AddLayer("advisor.label_ms_per_dataset",
                   Median(label_corpus) * 1e3 / kBuildDatasets, "ms",
                   n(label_corpus) * kBuildDatasets);
  report->AddLayer("advisor.fit_s", Median(fit), "s", n(fit));
  report->AddLayer("advisor.snapshot_ms", Median(snapshot) * 1e3, "ms",
                   n(snapshot));
  report->AddLayer("adapt.enqueue_us", Median(enqueue) * 1e6, "us", n(enqueue));
  int offered = 0, admitted = 0;
  for (const CycleResult& r : cycles) {
    offered += r.offered;
    admitted += r.admitted;
  }
  report->AddLayer("adapt.admit_ratio",
                   offered ? static_cast<double>(admitted) / offered : 0.0, "ratio",
                   offered);
  report->AddLayer("adapt.label_ms", Median(label) * 1e3, "ms", n(label));
  report->AddLayer("adapt.run_once_ms", Median(run_once) * 1e3, "ms", n(run_once));
  report->AddLayer("adapt.apply_ms", Median(apply) * 1e3, "ms", n(apply));
  report->AddLayer("adapt.items_applied",
                   static_cast<double>(cycles.back().stats.items_applied), "count",
                   1);
  report->AddLayer("adapt.generations_committed",
                   static_cast<double>(cycles.back().stats.generations_committed),
                   "count", 1);
  AddTraceSummary(trace, traced_ms, op_ms, report);
}

}  // namespace perfbench
