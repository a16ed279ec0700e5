// recommend_cold: a closed loop of cold recommendations. Every request
// is a fresh raw dataset (1-5 tables, 1-8 columns, 1k-50k rows per
// table, so column scans range from cache-resident to not), taken
// through Dataset::Validate -> FeatureExtractor::Extract ->
// featgraph::ValidateGraph -> a one-request AdvisorServer::Serve against
// an advisor fitted in set-up. No dataset repeats, so the serve-layer
// embedding cache is bypassed.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "advisor/label.h"
#include "data/generator.h"
#include "featgraph/featgraph.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using autoce::Rng;
using Scope = SpanRecorder::Scope;
namespace data = autoce::data;
namespace featgraph = autoce::featgraph;
namespace serve = autoce::serve;
namespace advisor = autoce::advisor;

constexpr int kCorpusSize = 16;
constexpr int kGatePrefix = 12;
constexpr int kSetupRepeats = 3;
constexpr uint64_t kCorpusStream = 1;
constexpr uint64_t kLabelStream = 2;
constexpr uint64_t kRequestStream = 3;

struct Shape {
  int tables;
  int columns;
  int64_t rows;  ///< largest table; the others hold 75-100% of it
};

/// Every request shape: 1-5 tables x 1-8 columns x 8 row scales spaced
/// evenly in log from 1k to 50k (so small and L2-exceeding column scans
/// both occur), sorted by cells (tables x columns x rows).
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = [] {
    std::vector<Shape> out;
    for (int t = 1; t <= 5; ++t) {
      for (int c = 1; c <= 8; ++c) {
        for (int r = 0; r < 8; ++r) {
          out.push_back({t, c, static_cast<int64_t>(std::lround(
                                   1000.0 * std::pow(50.0, r / 7.0)))});
        }
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const Shape& a, const Shape& b) {
      return static_cast<int64_t>(a.tables) * a.columns * a.rows <
             static_cast<int64_t>(b.tables) * b.columns * b.rows;
    });
    return out;
  }();
  return shapes;
}

/// Request i takes the shape at size quantile u_i, a golden-ratio
/// sequence from a seed-dependent start: any stretch of the stream, and
/// each of its even and odd halves, covers the size range evenly, so the
/// median and p99 do not hinge on which sizes a seed happened to draw.
/// The contents are random per request.
data::Dataset RequestDataset(uint64_t seed, uint64_t i) {
  const double offset = Rng(SubSeed(seed, kRequestStream, 0)).Uniform();
  const double u = Kronecker(0, i, offset);
  const Shape& shape = Shapes()[static_cast<size_t>(u * Shapes().size())];
  Rng rng(SubSeed(seed, kRequestStream, i + 1));
  data::DatasetGenParams gen = CorpusParams();
  gen.name = "request_" + std::to_string(i);
  gen.min_tables = gen.max_tables = shape.tables;
  gen.min_columns = gen.max_columns = shape.columns;
  gen.max_rows = shape.rows;
  gen.min_rows = shape.rows * 3 / 4;
  return data::GenerateDataset(gen, &rng);
}

struct Served {
  bool ok = false;
  int model = -1;
};

/// One cold recommendation: the timed operation.
Served Recommend(serve::AdvisorServer* server,
                 const featgraph::FeatureExtractor& fx,
                 const data::Dataset& ds, uint64_t id, double w_a) {
  Scope op("op");
  Served out;
  autoce::Status valid;
  {
    Scope s("data.validate");
    valid = ds.Validate();
  }
  serve::RecommendRequest request;
  request.id = id;
  request.w_a = w_a;
  {
    Scope s("featgraph.extract", Cells(ds));
    request.graph = fx.Extract(ds);
  }
  autoce::Status graph_ok;
  {
    Scope s("featgraph.validate");
    graph_ok = featgraph::ValidateGraph(request.graph, fx.vertex_dim());
  }
  if (!valid.ok() || !graph_ok.ok()) return out;
  std::vector<serve::RecommendResponse> responses;
  {
    Scope s("serve.serve");
    responses = server->Serve({request});
  }
  const serve::RecommendResponse& r = responses.at(0);
  out.ok = r.status.ok() && !r.shed && !r.recommendation.degraded;
  out.model = static_cast<int>(r.recommendation.model);
  return out;
}

}  // namespace

void RunRecommendCold(const Options& opts, Report* report) {
  const std::vector<double> weights = AdvisorConfig().training_weights;
  featgraph::FeatureExtractor fx;

  std::vector<data::Dataset> gate_inputs;
  for (int i = 0; i < kGatePrefix; ++i) {
    gate_inputs.push_back(RequestDataset(opts.seed, static_cast<uint64_t>(i)));
  }

  // Set-up: label a small corpus, fit the advisor, open the server.
  // After every set-up (untimed) the gate prefix is served; every
  // set-up, at either thread count, must produce the same encoder and
  // recommend the same models.
  std::unique_ptr<serve::AdvisorServer> server;
  uint64_t model_digest = 0, gate_digest = 0, digest = 0;
  RunSetups(
      opts, kSetupRepeats,
      [&](int) {
        auto corpus =
            SpreadCorpus(CorpusParams(), "corpus", kCorpusSize, opts.seed, kCorpusStream);
        advisor::LabeledCorpus labeled = advisor::LabelCorpus(
            std::move(corpus), LabelTestbed(SubSeed(opts.seed, kLabelStream, 0)),
            fx);
        advisor::AutoCe fitted(AdvisorConfig());
        autoce::Status st = fitted.Fit(labeled.graphs, labeled.labels);
        report->CountOp("fit", !st.ok());
        digest = fitted.ModelDigest();
        server = std::make_unique<serve::AdvisorServer>(std::move(fitted));
      },
      [&](int r) {
        Digest d;
        for (int i = 0; i < kGatePrefix; ++i) {
          Served out = Recommend(server.get(), fx, gate_inputs[static_cast<size_t>(i)],
                                 static_cast<uint64_t>(i),
                                 weights[static_cast<size_t>(i) % weights.size()]);
          report->CountOp("recommend", !out.ok);
          d.Add(static_cast<uint64_t>(out.model));
        }
        if (r == 0) {
          model_digest = digest;
          gate_digest = d.value();
        }
        const std::string tag = " (set-up " + std::to_string(r) + ")";
        report->ExpectSame("model digest" + tag, model_digest, digest);
        report->ExpectSame("recommended models" + tag, gate_digest, d.value());
      },
      report);
  report->AddDigest("model", model_digest);
  report->AddDigest("recommended_models", gate_digest);
  gate_inputs.clear();

  // Measured phase: closed loop, one client. Inputs are generated
  // outside the timed region.
  SpanRecorder& recorder = SpanRecorder::Instance();
  serve::ServerStats before = server->stats();
  std::vector<double> op_ms, traced_ms;
  double busy = 0.0;
  const double deadline = NowSeconds() + opts.seconds;
  for (uint64_t i = kGatePrefix; NowSeconds() < deadline; ++i) {
    data::Dataset ds = RequestDataset(opts.seed, i);
    const bool traced = opts.trace && (i % 2 == 1);
    recorder.set_enabled(traced);
    recorder.set_request(i);
    double start = NowSeconds();
    Served out = Recommend(server.get(), fx, ds, i, weights[i % weights.size()]);
    double ms = (NowSeconds() - start) * 1e3;
    recorder.set_enabled(false);
    busy += ms / 1e3;
    (traced ? traced_ms : op_ms).push_back(ms);
    report->CountOp("recommend", !out.ok);
  }
  serve::ServerStats after = server->stats();

  AddLatencyMetrics(op_ms, busy, "recommend", "recommend_per_s", report);

  if (!opts.trace) return;
  TraceAnalysis trace(recorder.spans());
  auto us = [](std::vector<double> v, double p) { return Pct(v, p) * 1e6; };
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  auto validate = trace.Durations("data.validate");
  auto graph_validate = trace.Durations("featgraph.validate");
  auto extract = trace.Durations("featgraph.extract");
  auto served = trace.Durations("serve.serve");
  double extract_s = 0.0;
  for (double d : extract) extract_s += d;
  report->AddLayer("data.validate_us", us(validate, 50), "us", n(validate));
  report->AddLayer("featgraph.validate_us", us(graph_validate, 50), "us",
                   n(graph_validate));
  report->AddLayer("featgraph.extract_ms_p50", Pct(extract, 50) * 1e3, "ms",
                   n(extract));
  report->AddLayer("featgraph.extract_ms_p99", Pct(extract, 99) * 1e3, "ms",
                   n(extract));
  report->AddLayer("featgraph.extract_mcells_per_s",
                   extract_s > 0 ? trace.Work("featgraph.extract") / extract_s / 1e6
                                 : 0.0,
                   "Mcells/s", n(extract));
  report->AddLayer("serve.serve_us_p50", us(served, 50), "us", n(served));
  report->AddLayer("serve.serve_us_p99", us(served, 99), "us", n(served));
  const int64_t requests = static_cast<int64_t>(after.requests - before.requests);
  report->AddLayer("serve.embedded",
                   static_cast<double>(after.embedded - before.embedded), "count",
                   requests);
  report->AddLayer("serve.cache_hits",
                   static_cast<double>(after.cache_hits - before.cache_hits),
                   "count", requests);
  report->AddLayer("serve.shed", static_cast<double>(after.shed - before.shed),
                   "count", requests);
  AddTraceSummary(trace, traced_ms, op_ms, report);
}

}  // namespace perfbench
