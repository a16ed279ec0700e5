// autoce — command-line front end to the AutoCE model advisor.
//
//   autoce generate  --out DIR --count N [--min-tables A --max-tables B]
//                    [--min-rows A --max-rows B] [--seed S]
//   autoce train     --data DIR --out model.ace [--train-queries N]
//                    [--test-queries N] [--epochs N]
//                    [--snapshot-dir DIR [--resume]]
//   autoce recommend --model model.ace (--dataset F.adat | --csv F.csv)
//                    [--weight W]
//   autoce serve     (--model model.ace | --snapshot-dir DIR) --data DIR
//                    [--weight W] [--batch N] [--queue N] [--adapt]
//                    [--deadline-ms MS] [--disk-budget-bytes B]
//   autoce adapt     --snapshot-dir DIR --data DIR [--batch N]
//                    [--queue N] [--seed S] [--train-queries N]
//                    [--test-queries N] [--label-budget-ms MS]
//                    [--workers N] [--disk-budget-bytes B]
//   autoce adapt quarantine --snapshot-dir DIR [--json]
//   autoce adapt requeue FINGERPRINT --snapshot-dir DIR --data DIR
//                    [--drain] [--seed S]
//   autoce fss       (stats|inspect) --store DIR [--limit N]
//   autoce dyn gen   --out DIR [--per-cell N] [--seed S]
//   autoce dyn step  --dataset F.adat [--epochs K] [--intensity X]
//                    [--out F.adat]
//   autoce dyn stats --dataset F.adat
//   autoce inspect   (--model model.ace | --snapshot-dir DIR)
//   autoce faults list
//
// `generate` writes synthetic datasets as .adat files; `train` labels
// them with the CE testbed (training all seven estimators per dataset)
// and fits + saves the advisor; `recommend` loads the advisor and picks
// a CE model for a new dataset under accuracy weight W.
//
// With --snapshot-dir, `train` commits a crash-safe snapshot at every
// training checkpoint; after a crash (or kill -9), rerunning with
// --resume continues from the last durable generation and produces the
// same bits as an uninterrupted run. `inspect --snapshot-dir` prints
// the store's generations and the sections of the newest good snapshot.
//
// `serve` answers every .adat dataset under --data through the batched
// advisor service (DESIGN.md §5.8): bounded admission, coalesced GIN
// forwards, indexed KNN. With --snapshot-dir it serves the newest good
// snapshot generation and reports it per response.
//
// `adapt` closes the online-adaptation loop (DESIGN.md §5.11) over a
// snapshot store: every --data dataset is checked against the serving
// advisor's drift threshold, OOD ones enter the bounded feedback
// queue, and the pipeline labels / Mixup-augments / trains / commits
// them batch by batch, reloading the server after each applied batch.
// `serve --adapt` does the same from the serve path: OOD requests are
// enqueued while a background worker adapts concurrently.
//
// Resource budgets (DESIGN.md §5.12): `serve --deadline-ms` sheds
// requests whose deadline expired instead of embedding them, `adapt
// --label-budget-ms` bounds per-batch labeling wall-clock (cut-off
// items degrade to sentinel labels), `--disk-budget-bytes` makes the
// snapshot store refuse commits whose post-GC footprint would exceed
// the budget, and `adapt --workers N` drains batches with N labeling
// workers (bit-identical results at any N). `adapt quarantine` lists
// the poisoned fingerprints recorded in the store's QUARANTINE.log
// with stage + failure reason (`--json` for machine consumption);
// `adapt requeue FP` clears fingerprint FP from the log and re-offers
// the matching --data dataset through the feedback queue once the
// underlying fault is fixed (`--drain` trains it immediately).
//
// `fss stats` summarizes the per-subplan knowledge store committed
// under --store (DESIGN.md §5.13): entries, subspaces, observation
// counts, the store's dataset epoch, and how many entries the aging
// policy has evicted; `fss inspect` additionally lists the store's
// generations and the most-observed entries (`--limit`, default 20).
// `version --fss-store DIR` reports the store in the
// version/run-manifest output alongside budgets and the chaos seed.
//
// `dyn` drives the dynamic-data subsystem (DESIGN.md §5.14): `dyn gen`
// writes a regime-tagged corpus (the CardBench-style grid over table
// count / skew / correlation / fanout / drift) as .adat files; `dyn
// step` applies K deterministic mutation epochs to a dataset — the
// stream is a pure function of (content fingerprint, epoch), so
// re-running a step on the same input reproduces the same bits; `dyn
// stats` prints a dataset's epoch state and per-table shape.
//
// Telemetry (DESIGN.md §5.9): with AUTOCE_METRICS set, every command
// records obs counters/histograms, and `serve` and `adapt` print the
// Prometheus dump at the end. In that dump the live server, estimator
// services and adaptation pipeline export their Stats fields once per
// instance (`serve_requests_total{instance="1"}`); the at-exit dump to
// an AUTOCE_METRICS path, taken after they are destroyed, carries the
// unlabelled process totals (`serve_requests_total`). `faults list`
// prints the registered fault and kill sites with per-site trip counts.
// With AUTOCE_RUN_MANIFEST set, each command writes a RUN_<cmd>.json
// run manifest (config, seed, git describe, wall time, final metrics).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <string>
#include <vector>

#include <cinttypes>

#include "adapt/pipeline.h"
#include "advisor/autoce.h"
#include "advisor/label.h"
#include "data/csv.h"
#include "data/generator.h"
#include "dyn/mutation.h"
#include "dyn/regime.h"
#include "fss/estimator_service.h"
#include "fss/knowledge_store.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/chaos.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/simd.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace autoce {
namespace {

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  bool Has(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return true;
    }
    return false;
  }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    for (const auto& [k, v] : flags) {
      if (k == name) return v;
    }
    return fallback;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    std::string v = Get(name);
    return v.empty() ? fallback : std::stoll(v);
  }
  double GetDouble(const std::string& name, double fallback) const {
    std::string v = Get(name);
    return v.empty() ? fallback : std::stod(v);
  }
};

Args Parse(int argc, char** argv) {
  Args out;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      std::string key = a.substr(2);
      std::string value;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      out.flags.emplace_back(key, value);
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

std::vector<std::string> ListAdatFiles(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".adat") {
      out.push_back(dir + "/" + name);
    }
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

int CmdGenerate(const Args& args) {
  std::string out_dir = args.Get("out");
  if (out_dir.empty()) {
    std::fprintf(stderr, "generate: --out DIR is required\n");
    return 2;
  }
  int count = static_cast<int>(args.GetInt("count", 100));
  data::DatasetGenParams gen;
  gen.min_tables = static_cast<int>(args.GetInt("min-tables", 1));
  gen.max_tables = static_cast<int>(args.GetInt("max-tables", 5));
  gen.min_rows = args.GetInt("min-rows", 600);
  gen.max_rows = args.GetInt("max-rows", 1500);
  gen.min_columns = 1;
  gen.max_columns = 6;
  gen.min_domain = 20;
  gen.max_domain = 2000;
  gen.max_fanout_skew = 2.0;
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));

  auto corpus = data::GenerateCorpus(gen, count, &rng);
  for (size_t i = 0; i < corpus.size(); ++i) {
    char path[4096];
    std::snprintf(path, sizeof(path), "%s/dataset_%04zu.adat",
                  out_dir.c_str(), i);
    Status st = data::SaveDataset(corpus[i], path);
    if (!st.ok()) {
      std::fprintf(stderr, "generate: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote %d datasets to %s\n", count, out_dir.c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  std::string data_dir = args.Get("data");
  std::string out_path = args.Get("out");
  std::string snapshot_dir = args.Get("snapshot-dir");
  if (args.Has("resume") && snapshot_dir.empty()) {
    std::fprintf(stderr, "train: --resume requires --snapshot-dir\n");
    return 2;
  }
  if (args.Has("resume")) {
    // Everything (RCS, encoder, RNG cursors) lives in the snapshot, so a
    // resume needs no relabeling — it continues the interrupted fit.
    auto resumed = advisor::AutoCe::ResumeFit(snapshot_dir);
    if (resumed.ok()) {
      if (!out_path.empty()) {
        Status st = resumed->Save(out_path);
        if (!st.ok()) {
          std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
          return 1;
        }
      }
      std::printf("resumed advisor from %s (RCS %zu, drift threshold "
                  "%.4f)\n",
                  snapshot_dir.c_str(), resumed->RcsSize(),
                  resumed->DriftThreshold());
      return 0;
    }
    if (resumed.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "train: %s\n",
                   resumed.status().ToString().c_str());
      return 1;
    }
    std::printf("no snapshot in %s yet; training from scratch\n",
                snapshot_dir.c_str());
  }
  if (data_dir.empty() || out_path.empty()) {
    std::fprintf(stderr, "train: --data DIR and --out FILE are required\n");
    return 2;
  }
  auto files = ListAdatFiles(data_dir);
  if (files.size() < 4) {
    std::fprintf(stderr, "train: need at least 4 .adat datasets in %s\n",
                 data_dir.c_str());
    return 1;
  }
  std::vector<data::Dataset> datasets;
  for (const auto& f : files) {
    auto ds = data::LoadDataset(f);
    if (!ds.ok()) {
      std::fprintf(stderr, "train: %s: %s\n", f.c_str(),
                   ds.status().ToString().c_str());
      return 1;
    }
    datasets.push_back(std::move(ds).ValueOrDie());
  }
  std::printf("labeling %zu datasets (trains 7 CE models each)...\n",
              datasets.size());
  ce::TestbedConfig testbed;
  testbed.num_train_queries =
      static_cast<int>(args.GetInt("train-queries", 200));
  testbed.num_test_queries =
      static_cast<int>(args.GetInt("test-queries", 80));
  featgraph::FeatureExtractor extractor;
  Timer timer;
  auto corpus = advisor::LabelCorpus(std::move(datasets), testbed, extractor,
                                     /*verbose=*/true);
  std::printf("labeled in %.1fs; fitting the advisor...\n",
              timer.ElapsedSeconds());

  advisor::AutoCeConfig config;
  config.dml.epochs = static_cast<int>(args.GetInt("epochs", 40));
  advisor::AutoCe advisor(config);
  if (!snapshot_dir.empty()) {
    Status st = advisor.EnableSnapshots(snapshot_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  Status st = advisor.Fit(corpus.graphs, corpus.labels);
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return 1;
  }
  st = advisor.Save(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("advisor saved to %s (RCS %zu, drift threshold %.4f)\n",
              out_path.c_str(), advisor.RcsSize(), advisor.DriftThreshold());
  return 0;
}

int CmdRecommend(const Args& args) {
  std::string model_path = args.Get("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "recommend: --model FILE is required\n");
    return 2;
  }
  auto advisor = advisor::AutoCe::Load(model_path);
  if (!advisor.ok()) {
    std::fprintf(stderr, "recommend: %s\n",
                 advisor.status().ToString().c_str());
    return 1;
  }

  data::Dataset target;
  if (!args.Get("dataset").empty()) {
    auto ds = data::LoadDataset(args.Get("dataset"));
    if (!ds.ok()) {
      std::fprintf(stderr, "recommend: %s\n",
                   ds.status().ToString().c_str());
      return 1;
    }
    target = std::move(ds).ValueOrDie();
  } else if (!args.Get("csv").empty()) {
    auto table = data::LoadCsvTable(args.Get("csv"));
    if (!table.ok()) {
      std::fprintf(stderr, "recommend: %s\n",
                   table.status().ToString().c_str());
      return 1;
    }
    target.set_name(table->name);
    target.AddTable(std::move(table).ValueOrDie());
  } else {
    std::fprintf(stderr, "recommend: --dataset or --csv is required\n");
    return 2;
  }

  double w = args.GetDouble("weight", 0.9);
  auto graph = advisor->extractor().Extract(target);
  if (advisor->IsOutOfDistribution(graph)) {
    std::printf("note: dataset looks out-of-distribution (distance %.4f > "
                "threshold %.4f); consider online labeling\n",
                advisor->DistanceToRcs(graph), advisor->DriftThreshold());
  }
  auto rec = advisor->Recommend(graph, w);
  if (!rec.ok()) {
    std::fprintf(stderr, "recommend: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("recommended CE model (w_a = %.2f): %s\n", w,
              ce::ModelName(rec->model));
  std::printf("score vector:");
  for (int m = 0; m < ce::kNumModels; ++m) {
    std::printf(" %s=%.3f", ce::ModelName(static_cast<ce::ModelId>(m)),
                rec->score_vector[static_cast<size_t>(m)]);
  }
  std::printf("\n");
  return 0;
}

int CmdServe(const Args& args) {
  std::string data_dir = args.Get("data");
  if (data_dir.empty()) {
    std::fprintf(stderr, "serve: --data DIR is required\n");
    return 2;
  }
  serve::ServerConfig config;
  config.max_batch = static_cast<size_t>(args.GetInt("batch", 8));
  config.queue_capacity = static_cast<size_t>(args.GetInt("queue", 64));
  config.request_deadline_ms = args.GetDouble("deadline-ms", 0.0);
  util::SnapshotStoreOptions store_options;
  store_options.disk_budget_bytes =
      static_cast<uint64_t>(args.GetInt("disk-budget-bytes", 0));

  std::unique_ptr<serve::AdvisorServer> server;
  if (!args.Get("snapshot-dir").empty()) {
    auto opened = serve::AdvisorServer::Open(args.Get("snapshot-dir"), config,
                                             store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    server = std::move(*opened);
    std::printf("serving snapshot generation %" PRIu64 " from %s\n",
                server->generation(), args.Get("snapshot-dir").c_str());
  } else if (!args.Get("model").empty()) {
    auto advisor = advisor::AutoCe::Load(args.Get("model"));
    if (!advisor.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   advisor.status().ToString().c_str());
      return 1;
    }
    server = std::make_unique<serve::AdvisorServer>(std::move(*advisor),
                                                    config);
  } else {
    std::fprintf(stderr,
                 "serve: --model FILE or --snapshot-dir DIR is required\n");
    return 2;
  }

  auto files = ListAdatFiles(data_dir);
  if (files.empty()) {
    std::fprintf(stderr, "serve: no .adat datasets in %s\n",
                 data_dir.c_str());
    return 1;
  }
  double w = args.GetDouble("weight", 0.9);
  const featgraph::FeatureExtractor& extractor =
      server->advisor()->extractor();
  std::vector<data::Dataset> datasets;
  std::vector<serve::RecommendRequest> requests;
  for (size_t i = 0; i < files.size(); ++i) {
    auto ds = data::LoadDataset(files[i]);
    if (!ds.ok()) {
      std::fprintf(stderr, "serve: %s: %s\n", files[i].c_str(),
                   ds.status().ToString().c_str());
      return 1;
    }
    serve::RecommendRequest request;
    request.id = i;
    request.graph = extractor.Extract(*ds);
    request.w_a = w;
    requests.push_back(std::move(request));
    datasets.push_back(std::move(ds).ValueOrDie());
  }

  std::unique_ptr<adapt::AdaptationPipeline> pipeline;
  if (args.Has("adapt")) {
    if (args.Get("snapshot-dir").empty()) {
      std::fprintf(stderr, "serve: --adapt requires --snapshot-dir\n");
      return 2;
    }
    adapt::AdaptationConfig adapt_config;
    adapt_config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    auto opened_pipeline = adapt::AdaptationPipeline::Open(
        args.Get("snapshot-dir"), server.get(), adapt_config);
    if (!opened_pipeline.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   opened_pipeline.status().ToString().c_str());
      return 1;
    }
    pipeline = std::move(*opened_pipeline);
    Status st = pipeline->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  Timer timer;
  auto responses = server->Serve(requests);
  double ms = timer.ElapsedMillis();
  for (size_t i = 0; i < responses.size(); ++i) {
    const serve::RecommendResponse& r = responses[i];
    if (!r.status.ok()) {
      std::printf("%-28s ERROR %s\n", files[i].c_str(),
                  r.status.ToString().c_str());
      continue;
    }
    std::printf("%-28s -> %-10s%s%s\n", files[i].c_str(),
                ce::ModelName(r.recommendation.model),
                r.shed ? " [shed: degraded corpus default]" : "",
                r.from_cache ? " [cached]" : "");
  }
  serve::ServerStats stats = server->stats();
  std::printf("served %zu requests in %.1f ms (%zu batches, %" PRIu64
              " embedded, %" PRIu64 " cache hits, %" PRIu64 " shed, %" PRIu64
              " invalid)\n",
              requests.size(), ms,
              static_cast<size_t>(stats.batches), stats.embedded,
              stats.cache_hits, stats.shed, stats.invalid);
  if (pipeline != nullptr) {
    // Offer every served dataset to the adaptation loop; the background
    // worker labels and trains concurrently, then DrainAll finishes
    // whatever is still queued before we report.
    size_t enqueued = 0;
    for (size_t i = 0; i < datasets.size(); ++i) {
      adapt::Offered offered =
          pipeline->MaybeEnqueue(datasets[i], requests[i].graph);
      if (offered != adapt::Offered::kNotOod) ++enqueued;
    }
    Status st = pipeline->DrainAll();
    pipeline->Stop();
    if (!st.ok()) {
      std::fprintf(stderr, "serve: adaptation: %s\n", st.ToString().c_str());
      return 1;
    }
    adapt::AdaptationStats astats = pipeline->stats();
    std::printf("adaptation: %zu OOD enqueued, %" PRIu64 " applied, %" PRIu64
                " sentinel, %" PRIu64 " quarantined; now serving generation %"
                PRIu64 "\n",
                enqueued, astats.items_applied, astats.labels_sentinel,
                astats.items_quarantined, server->generation());
  }
  if (obs::MetricsEnabled()) {
    std::printf("--- metrics (Prometheus text) ---\n%s",
                obs::MetricsRegistry::Instance().ExportPrometheus().c_str());
  }
  return 0;
}

const char* OfferedName(adapt::Offered offered) {
  switch (offered) {
    case adapt::Offered::kNotOod: return "in-distribution";
    case adapt::Offered::kAdmitted: return "enqueued";
    case adapt::Offered::kAdmittedEvicting: return "enqueued [evicted one]";
    case adapt::Offered::kDuplicate: return "duplicate";
    case adapt::Offered::kRejectedFull: return "rejected [queue full]";
    case adapt::Offered::kRejectedFault: return "rejected [injected fault]";
  }
  return "unknown";
}

/// `autoce adapt quarantine`: lists (or exports as JSON) the
/// fingerprints the pipeline has quarantined, with the stage and the
/// failure reason recorded when each was poisoned.
int CmdAdaptQuarantine(const Args& args) {
  std::string store_dir = args.Get("snapshot-dir");
  if (store_dir.empty()) {
    std::fprintf(stderr, "adapt quarantine: --snapshot-dir DIR is required\n");
    return 2;
  }
  auto records = adapt::ReadQuarantineLog(store_dir);
  if (args.Has("json")) {
    std::printf("[");
    for (size_t i = 0; i < records.size(); ++i) {
      std::printf("%s{\"fingerprint\": \"%016" PRIx64
                  "\", \"stage\": \"%s\", \"reason\": \"%s\"}",
                  i == 0 ? "" : ", ", records[i].fingerprint,
                  records[i].stage.c_str(), records[i].reason.c_str());
    }
    std::printf("]\n");
    return 0;
  }
  if (records.empty()) {
    std::printf("no quarantined items in %s\n", store_dir.c_str());
    return 0;
  }
  std::printf("%zu quarantined item(s) in %s:\n", records.size(),
              store_dir.c_str());
  std::printf("  %-18s %-7s %s\n", "fingerprint", "stage", "reason");
  for (const auto& r : records) {
    std::printf("  %016" PRIx64 "   %-7s %s\n", r.fingerprint,
                r.stage.c_str(), r.reason.c_str());
  }
  return 0;
}

int CmdAdaptRequeue(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr,
                 "adapt requeue: expected `adapt requeue FINGERPRINT "
                 "--snapshot-dir DIR --data DIR [--drain]`\n");
    return 2;
  }
  uint64_t fingerprint =
      std::strtoull(args.positional[1].c_str(), nullptr, 16);
  std::string store_dir = args.Get("snapshot-dir");
  std::string data_dir = args.Get("data");
  if (store_dir.empty() || data_dir.empty()) {
    std::fprintf(stderr, "adapt requeue: --snapshot-dir DIR and --data DIR "
                         "are required\n");
    return 2;
  }
  adapt::AdaptationConfig config;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  config.testbed.num_train_queries =
      static_cast<int>(args.GetInt("train-queries", 200));
  config.testbed.num_test_queries =
      static_cast<int>(args.GetInt("test-queries", 80));
  auto opened = adapt::AdaptationPipeline::Open(store_dir, /*server=*/nullptr,
                                                config);
  if (!opened.ok()) {
    std::fprintf(stderr, "adapt requeue: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<adapt::AdaptationPipeline> pipeline = std::move(*opened);

  // The quarantine records only the fingerprint; the dataset itself
  // comes back from --data, matched by refingerprinting every graph.
  featgraph::FeatureExtractor extractor;
  for (const auto& file : ListAdatFiles(data_dir)) {
    auto ds = data::LoadDataset(file);
    if (!ds.ok()) {
      std::fprintf(stderr, "adapt requeue: %s: %s\n", file.c_str(),
                   ds.status().ToString().c_str());
      return 1;
    }
    auto graph = extractor.Extract(*ds);
    if (featgraph::GraphFingerprint(graph) != fingerprint) continue;

    auto offered = pipeline->RequeueFromQuarantine(fingerprint, *ds, graph);
    if (!offered.ok()) {
      std::fprintf(stderr, "adapt requeue: %s\n",
                   offered.status().ToString().c_str());
      return 1;
    }
    std::printf("%016" PRIx64 " cleared from quarantine, re-offered: %s "
                "(%s)\n",
                fingerprint, OfferedName(*offered), file.c_str());
    if (args.Has("drain")) {
      Status st = pipeline->DrainAll();
      if (!st.ok()) {
        std::fprintf(stderr, "adapt requeue: %s\n", st.ToString().c_str());
        return 1;
      }
      adapt::AdaptationStats stats = pipeline->stats();
      std::printf("drained: %" PRIu64 " applied, %" PRIu64 " quarantined, "
                  "%" PRIu64 " generations committed\n",
                  stats.items_applied, stats.items_quarantined,
                  stats.generations_committed);
    }
    return 0;
  }
  std::fprintf(stderr,
               "adapt requeue: no dataset in %s fingerprints to %016" PRIx64
               "\n",
               data_dir.c_str(), fingerprint);
  return 1;
}

int CmdAdapt(const Args& args) {
  if (!args.positional.empty() && args.positional[0] == "quarantine") {
    return CmdAdaptQuarantine(args);
  }
  if (!args.positional.empty() && args.positional[0] == "requeue") {
    return CmdAdaptRequeue(args);
  }
  std::string store_dir = args.Get("snapshot-dir");
  std::string data_dir = args.Get("data");
  if (store_dir.empty() || data_dir.empty()) {
    std::fprintf(stderr,
                 "adapt: --snapshot-dir DIR and --data DIR are required\n");
    return 2;
  }
  auto files = ListAdatFiles(data_dir);
  if (files.empty()) {
    std::fprintf(stderr, "adapt: no .adat datasets in %s\n",
                 data_dir.c_str());
    return 1;
  }
  auto opened = serve::AdvisorServer::Open(store_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "adapt: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::AdvisorServer> server = std::move(*opened);

  adapt::AdaptationConfig config;
  config.queue_capacity = static_cast<size_t>(args.GetInt("queue", 64));
  config.batch_size = static_cast<size_t>(args.GetInt("batch", 4));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  config.testbed.num_train_queries =
      static_cast<int>(args.GetInt("train-queries", 200));
  config.testbed.num_test_queries =
      static_cast<int>(args.GetInt("test-queries", 80));
  config.label_budget_ms_per_batch = args.GetDouble("label-budget-ms", 0.0);
  config.num_workers = static_cast<int>(args.GetInt("workers", 1));
  util::SnapshotStoreOptions store_options;
  store_options.disk_budget_bytes =
      static_cast<uint64_t>(args.GetInt("disk-budget-bytes", 0));
  auto opened_pipeline = adapt::AdaptationPipeline::Open(
      store_dir, server.get(), config, store_options);
  if (!opened_pipeline.ok()) {
    std::fprintf(stderr, "adapt: %s\n",
                 opened_pipeline.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<adapt::AdaptationPipeline> pipeline =
      std::move(*opened_pipeline);
  std::printf("adapting store %s (generation %" PRIu64
              ", RCS %zu, drift threshold %.4f)\n",
              store_dir.c_str(), server->generation(),
              pipeline->TrainerRcsSize(),
              server->advisor()->DriftThreshold());

  const featgraph::FeatureExtractor& extractor =
      server->advisor()->extractor();
  for (const auto& file : files) {
    auto ds = data::LoadDataset(file);
    if (!ds.ok()) {
      std::fprintf(stderr, "adapt: %s: %s\n", file.c_str(),
                   ds.status().ToString().c_str());
      return 1;
    }
    auto graph = extractor.Extract(*ds);
    adapt::Offered offered = pipeline->MaybeEnqueue(*ds, graph);
    std::printf("%-28s %s\n", file.c_str(), OfferedName(offered));
  }

  Timer timer;
  Status st = pipeline->DrainAll();
  if (!st.ok()) {
    std::fprintf(stderr, "adapt: %s\n", st.ToString().c_str());
    return 1;
  }
  adapt::AdaptationStats stats = pipeline->stats();
  std::printf("adapted in %.1fs: %" PRIu64 " batches, %" PRIu64
              " applied, %" PRIu64 " deduped, %" PRIu64 " sentinel, %" PRIu64
              " quarantined, %" PRIu64 " generations committed\n",
              timer.ElapsedSeconds(), stats.batches, stats.items_applied,
              stats.items_deduped, stats.labels_sentinel,
              stats.items_quarantined, stats.generations_committed);
  std::printf("server now at generation %" PRIu64 " (RCS %zu, drift "
              "threshold %.4f)\n",
              server->generation(), server->advisor()->RcsSize(),
              server->advisor()->DriftThreshold());
  if (obs::MetricsEnabled()) {
    std::printf("--- metrics (Prometheus text) ---\n%s",
                obs::MetricsRegistry::Instance().ExportPrometheus().c_str());
  }
  return 0;
}

int CmdFaults(const Args& args) {
  if (args.positional.empty() || args.positional[0] != "list") {
    std::fprintf(stderr, "faults: expected `faults list`\n");
    return 2;
  }
  auto& injection = util::FaultInjection::Instance();
  std::printf("fault sites (AUTOCE_FAULTS=site[:prob],... or `*`):\n");
  for (const char* site : util::AllFaultSites()) {
    std::printf("  %-24s trips %" PRId64 "\n", site,
                injection.FireCount(site));
  }
  std::printf("kill sites (AUTOCE_KILLPOINTS=site[:prob],...):\n");
  for (const char* site : util::AllKillSites()) {
    std::printf("  %s\n", site);
  }
  return 0;
}

const char* PhaseName(uint32_t phase) {
  switch (phase) {
    case 0: return "chunk training";
    case 1: return "incremental learning";
    case 2: return "done";
    default: return "unknown";
  }
}

int InspectSnapshotDir(const std::string& dir) {
  auto store = util::SnapshotStore::Open(dir);
  if (!store.ok()) {
    std::fprintf(stderr, "inspect: %s\n", store.status().ToString().c_str());
    return 1;
  }
  std::printf("AutoCE snapshot store: %s\n", dir.c_str());
  auto gens = store->ListGenerations();
  std::printf("  generations on disk : %zu (", gens.size());
  for (size_t i = 0; i < gens.size(); ++i) {
    std::printf("%s%" PRIu64, i == 0 ? "" : " ", gens[i]);
  }
  std::printf(")\n");
  auto manifest = store->ManifestGeneration();
  if (manifest.ok()) {
    std::printf("  MANIFEST generation : %" PRIu64 "\n", *manifest);
  } else {
    std::printf("  MANIFEST generation : absent or torn\n");
  }
  uint64_t gen = 0;
  auto sections = store->LoadLatest(&gen);
  if (!sections.ok()) {
    std::fprintf(stderr, "inspect: no loadable snapshot: %s\n",
                 sections.status().ToString().c_str());
    return 1;
  }
  std::printf("  newest good snapshot: generation %" PRIu64 "\n", gen);
  for (const auto& s : *sections) {
    std::printf("    section %-10s %8zu bytes\n", s.name.c_str(),
                s.payload.size());
    if (s.name == "cursor") {
      // Cursor layout (DESIGN.md Sec. 5.7): u32 phase, i64 trained
      // epochs, f64 best validation D-error, u64 hold-out size + ids.
      BinaryReader r(s.payload.data(), s.payload.size());
      uint32_t phase = r.ReadU32();
      int64_t trained = r.ReadI64();
      double best_err = r.ReadDouble();
      if (r.status().ok()) {
        std::printf("      phase %s, %" PRId64
                    " epochs trained, best val D-error %.4f\n",
                    PhaseName(phase), trained, best_err);
      }
    }
  }
  return 0;
}

int CmdInspect(const Args& args) {
  if (!args.Get("snapshot-dir").empty()) {
    return InspectSnapshotDir(args.Get("snapshot-dir"));
  }
  std::string model_path = args.Get("model");
  if (model_path.empty()) {
    std::fprintf(stderr,
                 "inspect: --model FILE or --snapshot-dir DIR is required\n");
    return 2;
  }
  auto advisor = advisor::AutoCe::Load(model_path);
  if (!advisor.ok()) {
    std::fprintf(stderr, "inspect: %s\n",
                 advisor.status().ToString().c_str());
    return 1;
  }
  std::printf("AutoCE advisor model: %s\n", model_path.c_str());
  std::printf("  RCS size            : %zu labeled datasets\n",
              advisor->RcsSize());
  std::printf("  drift threshold     : %.4f\n", advisor->DriftThreshold());
  std::printf("  KNN k               : %d\n", advisor->config().knn_k);
  std::printf("  embedding dimension : %d\n",
              advisor->config().gin.embedding_dim);
  std::printf("  supported weights   :");
  for (double w : advisor->config().training_weights) {
    std::printf(" %.1f", w);
  }
  std::printf("\n");
  return 0;
}

/// Loads the newest committed fss knowledge section under `dir`,
/// returning the parsed store and its snapshot generation.
Result<std::pair<fss::KnowledgeStore, uint64_t>> LoadFssKnowledge(
    const std::string& dir) {
  auto store = util::SnapshotStore::Open(dir);
  if (!store.ok()) return store.status();
  uint64_t generation = 0;
  auto sections = store->LoadLatest(&generation);
  if (!sections.ok()) return sections.status();
  for (const auto& section : *sections) {
    if (section.name != fss::kKnowledgeSection) continue;
    auto knowledge = fss::KnowledgeStore::Deserialize(section.payload);
    if (!knowledge.ok()) return knowledge.status();
    return std::make_pair(std::move(*knowledge), generation);
  }
  return Status::NotFound("newest generation has no " +
                          std::string(fss::kKnowledgeSection) + " section");
}

int CmdFss(const Args& args) {
  if (args.positional.empty() ||
      (args.positional[0] != "stats" && args.positional[0] != "inspect")) {
    std::fprintf(stderr, "fss: expected `fss (stats|inspect) --store DIR "
                         "[--limit N]`\n");
    return 2;
  }
  std::string dir = args.Get("store");
  if (dir.empty()) {
    std::fprintf(stderr, "fss: --store DIR is required\n");
    return 2;
  }
  auto loaded = LoadFssKnowledge(dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "fss: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const fss::KnowledgeStore& knowledge = loaded->first;
  auto entries = knowledge.SortedEntries();
  uint64_t observations = 0;
  double min_card = 0.0, max_card = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    observations += entries[i].second.observations;
    double card = entries[i].second.observed_card;
    if (i == 0 || card < min_card) min_card = card;
    if (i == 0 || card > max_card) max_card = card;
  }
  std::printf("fss knowledge store: %s (generation %" PRIu64 ")\n",
              dir.c_str(), loaded->second);
  std::printf("  entries        : %zu\n", knowledge.size());
  std::printf("  subspaces      : %zu\n", knowledge.num_subspaces());
  std::printf("  observations   : %" PRIu64 " (%.2f per entry)\n",
              observations,
              entries.empty() ? 0.0
                              : static_cast<double>(observations) /
                                    static_cast<double>(entries.size()));
  std::printf("  observed cards : [%.0f, %.0f]\n", min_card, max_card);
  std::printf("  dataset epoch  : %" PRIu64 "\n", knowledge.epoch());
  std::printf("  aged out       : %" PRIu64 "\n", knowledge.aged_out());
  if (args.positional[0] == "stats") return 0;

  auto store = util::SnapshotStore::Open(dir);
  std::printf("  generations    :");
  for (uint64_t g : store->ListGenerations()) {
    std::printf(" %" PRIu64, g);
  }
  std::printf("\n");
  size_t limit = static_cast<size_t>(args.GetInt("limit", 20));
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.observations > b.second.observations;
                   });
  std::printf("  top %zu entries by observations:\n",
              std::min(limit, entries.size()));
  std::printf("    %-18s %-18s %12s %8s\n", "fss_hash", "literal_hash",
              "mean_card", "obs");
  for (size_t i = 0; i < entries.size() && i < limit; ++i) {
    std::printf("    %016" PRIx64 "   %016" PRIx64 "   %12.1f %8" PRIu64 "\n",
                entries[i].first, entries[i].second.literal_hash,
                entries[i].second.observed_card,
                entries[i].second.observations);
  }
  return 0;
}

int CmdDynGen(const Args& args) {
  std::string out_dir = args.Get("out");
  if (out_dir.empty()) {
    std::fprintf(stderr, "dyn gen: --out DIR is required\n");
    return 2;
  }
  int per_cell = static_cast<int>(args.GetInt("per-cell", 1));
  data::DatasetGenParams base;
  base.min_rows = args.GetInt("min-rows", 200);
  base.max_rows = args.GetInt("max-rows", 500);
  base.min_columns = 2;
  base.max_columns = 4;
  dyn::RegimeAxes axes;
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));
  auto corpus = dyn::GenerateRegimeCorpus(axes, base, per_cell, &rng);
  for (size_t i = 0; i < corpus.size(); ++i) {
    char path[4096];
    std::snprintf(path, sizeof(path), "%s/%s.adat", out_dir.c_str(),
                  corpus[i].dataset.name().c_str());
    Status st = data::SaveDataset(corpus[i].dataset, path);
    if (!st.ok()) {
      std::fprintf(stderr, "dyn gen: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote %zu regime-tagged datasets (%zu regimes x %d) to %s\n",
              corpus.size(), corpus.size() / std::max(1, per_cell), per_cell,
              out_dir.c_str());
  return 0;
}

int CmdDynStep(const Args& args) {
  std::string path = args.Get("dataset");
  if (path.empty()) {
    std::fprintf(stderr, "dyn step: --dataset F.adat is required\n");
    return 2;
  }
  auto ds = data::LoadDataset(path);
  if (!ds.ok()) {
    std::fprintf(stderr, "dyn step: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  dyn::MutationConfig cfg;
  cfg.intensity = args.GetDouble("intensity", 1.0);
  int epochs = static_cast<int>(args.GetInt("epochs", 1));
  auto report = dyn::ApplyEpochs(&*ds, cfg, epochs);
  if (!report.ok()) {
    std::fprintf(stderr, "dyn step: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::string out = args.Get("out");
  if (out.empty()) out = path;
  Status st = data::SaveDataset(*ds, out);
  if (!st.ok()) {
    std::fprintf(stderr, "dyn step: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("applied %d epoch(s): now at epoch %" PRIu64
              " (+%" PRId64 " rows, -%" PRId64 " rows, %" PRId64
              " values shifted) -> %s\n",
              epochs, report->epoch, report->rows_inserted,
              report->rows_deleted, report->values_shifted, out.c_str());
  return 0;
}

int CmdDynStats(const Args& args) {
  std::string path = args.Get("dataset");
  if (path.empty()) {
    std::fprintf(stderr, "dyn stats: --dataset F.adat is required\n");
    return 2;
  }
  auto ds = data::LoadDataset(path);
  if (!ds.ok()) {
    std::fprintf(stderr, "dyn stats: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset %s\n", ds->name().c_str());
  std::printf("  epoch            : %" PRIu64 "\n", ds->epoch());
  std::printf("  base fingerprint : %016" PRIx64 "\n",
              ds->base_fingerprint());
  std::printf("  fingerprint now  : %016" PRIx64 "\n",
              dyn::DatasetFingerprint(*ds));
  std::printf("  tables           : %d\n", ds->NumTables());
  for (int t = 0; t < ds->NumTables(); ++t) {
    const data::Table& table = ds->table(t);
    std::printf("    %-16s %zu cols x %" PRId64 " rows\n",
                table.name.c_str(), table.columns.size(), table.NumRows());
  }
  std::printf("  foreign keys     : %zu\n", ds->foreign_keys().size());
  return 0;
}

int CmdDyn(const Args& args) {
  if (!args.positional.empty()) {
    if (args.positional[0] == "gen") return CmdDynGen(args);
    if (args.positional[0] == "step") return CmdDynStep(args);
    if (args.positional[0] == "stats") return CmdDynStats(args);
  }
  std::fprintf(stderr, "dyn: expected `dyn (gen|step|stats)` "
                       "(see the header of tools/autoce_cli.cc)\n");
  return 2;
}

int CmdVersion(const Args& args) {
  std::printf("autoce (C++20 reproduction of AutoCE, ICDE 2023)\n");
  std::printf("  simd compiled  : %s\n",
              util::simd::LevelName(util::simd::CompiledLevel()));
  std::printf("  simd selected  : %s\n",
              util::simd::LevelName(util::simd::ActiveLevel()));
  std::printf("  threads        : %d\n", util::GlobalParallelism());
  std::printf("  fault sites    : %zu\n", util::AllFaultSites().size());
  std::printf("  kill sites     : %zu\n", util::AllKillSites().size());
  uint64_t chaos_seed = util::ActiveChaosSeed();
  if (chaos_seed != 0) {
    std::printf("  chaos seed     : %" PRIu64 "\n", chaos_seed);
  } else {
    std::printf("  chaos seed     : (none)\n");
  }
  double deadline_ms = args.GetDouble("deadline-ms", 0.0);
  double label_budget = args.GetDouble("label-budget-ms", 0.0);
  int64_t disk_budget = args.GetInt("disk-budget-bytes", 0);
  std::printf("  request deadline  : %s\n",
              deadline_ms > 0.0
                  ? (std::to_string(deadline_ms) + " ms").c_str()
                  : "unlimited");
  std::printf("  label budget/batch: %s\n",
              label_budget > 0.0
                  ? (std::to_string(label_budget) + " ms").c_str()
                  : "unlimited");
  std::printf("  disk budget       : %s\n",
              disk_budget > 0
                  ? (std::to_string(disk_budget) + " bytes").c_str()
                  : "unlimited");
  fss::EstimatorServiceOptions fss_defaults;
  std::printf("  fss cache         : %zu entries (default)\n",
              fss_defaults.cache_capacity);
  if (std::string dir = args.Get("fss-store"); !dir.empty()) {
    auto loaded = LoadFssKnowledge(dir);
    if (loaded.ok()) {
      std::printf("  fss store         : %s: %zu entries, %zu subspaces "
                  "(generation %" PRIu64 ")\n",
                  dir.c_str(), loaded->first.size(),
                  loaded->first.num_subspaces(), loaded->second);
    } else {
      std::printf("  fss store         : %s: %s\n", dir.c_str(),
                  loaded.status().ToString().c_str());
    }
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: autoce <generate|train|recommend|serve|adapt|fss|dyn|"
               "inspect|faults|version> [flags]\n"
               "see the header of tools/autoce_cli.cc for details\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Args args = Parse(argc - 1, argv + 1);
  Timer wall;
  int rc = 2;
  if (cmd == "generate") rc = CmdGenerate(args);
  else if (cmd == "train") rc = CmdTrain(args);
  else if (cmd == "recommend") rc = CmdRecommend(args);
  else if (cmd == "serve") rc = CmdServe(args);
  else if (cmd == "adapt") rc = CmdAdapt(args);
  else if (cmd == "inspect") rc = CmdInspect(args);
  else if (cmd == "faults") rc = CmdFaults(args);
  else if (cmd == "fss") rc = CmdFss(args);
  else if (cmd == "dyn") rc = CmdDyn(args);
  else if (cmd == "version") rc = CmdVersion(args);
  else return Usage();
  // AUTOCE_RUN_MANIFEST records what this invocation ran (and, when
  // metrics are live, every final counter/quantile) to RUN_<cmd>.json.
  if (const char* env = std::getenv("AUTOCE_RUN_MANIFEST");
      env != nullptr && env[0] != '\0' && std::string(env) != "0") {
    obs::RunManifest manifest("autoce_" + cmd);
    manifest.AddInt("exit_code", rc)
        .AddInt("seed", args.GetInt("seed", 42))
        .AddInt("threads", util::GlobalParallelism())
        .AddString("simd_compiled",
                   util::simd::LevelName(util::simd::CompiledLevel()))
        .AddString("simd_selected",
                   util::simd::LevelName(util::simd::ActiveLevel()))
        .AddDouble("wall_seconds", wall.ElapsedSeconds())
        // Resource budgets + chaos arming, so a soak/chaos run is
        // reproducible from its manifest alone.
        .AddInt("chaos_seed",
                static_cast<int64_t>(util::ActiveChaosSeed()))
        .AddDouble("request_deadline_ms", args.GetDouble("deadline-ms", 0.0))
        .AddDouble("label_budget_ms_per_batch",
                   args.GetDouble("label-budget-ms", 0.0))
        .AddInt("disk_budget_bytes", args.GetInt("disk-budget-bytes", 0));
    // FSS cache/store stats, like the budgets above: a run touching a
    // knowledge store is reproducible + auditable from its manifest.
    fss::EstimatorServiceOptions fss_defaults;
    manifest.AddInt("fss_cache_capacity",
                    static_cast<int64_t>(fss_defaults.cache_capacity));
    if (std::string dir = args.Get("fss-store"); !dir.empty()) {
      if (auto loaded = LoadFssKnowledge(dir); loaded.ok()) {
        manifest.AddString("fss_store", dir)
            .AddInt("fss_store_generation",
                    static_cast<int64_t>(loaded->second))
            .AddInt("fss_knowledge_entries",
                    static_cast<int64_t>(loaded->first.size()))
            .AddInt("fss_knowledge_subspaces",
                    static_cast<int64_t>(loaded->first.num_subspaces()));
      } else {
        manifest.AddString("fss_store", dir)
            .AddString("fss_store_error", loaded.status().ToString());
      }
    }
    std::string flags;
    for (const auto& [k, v] : args.flags) {
      if (!flags.empty()) flags += ' ';
      flags += "--" + k + (v.empty() ? "" : " " + v);
    }
    manifest.AddString("flags", flags).AddMetricsSnapshot();
    manifest.Write();
  }
  return rc;
}

}  // namespace
}  // namespace autoce

int main(int argc, char** argv) { return autoce::Main(argc, argv); }
