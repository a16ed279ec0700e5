// Subprocess body of the kill-point recovery harness (see
// crash_recovery_test.cc). Fits a small advisor corpus with crash-safe
// snapshots enabled and prints "DIGEST <hex>" on success; with --resume
// it first tries to continue from the snapshot directory, falling back
// to a fresh fit when no generation survived (a crash before the first
// checkpoint). Kill points are armed purely via AUTOCE_KILLPOINTS in
// the environment, so a run under that variable dies mid-persistence
// with exit code 137 exactly like a `kill -9`.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "serve/server.h"

namespace {

struct Corpus {
  std::vector<autoce::featgraph::FeatureGraph> graphs;
  std::vector<autoce::advisor::DatasetLabel> labels;
};

Corpus MakeCorpus(int n, uint64_t seed) {
  Corpus out;
  autoce::featgraph::FeatureExtractor fx;
  autoce::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    autoce::data::DatasetGenParams p;
    p.min_tables = 1;
    p.max_tables = 3;
    p.min_rows = 100;
    p.max_rows = 220;
    autoce::Rng child = rng.Fork(static_cast<uint64_t>(i));
    out.graphs.push_back(
        fx.Extract(autoce::data::GenerateDataset(p, &child)));
    autoce::advisor::DatasetLabel label;
    for (size_t m = 0; m < autoce::ce::kNumModels; ++m) {
      label.accuracy_score[m] = child.Uniform(0.1, 1.0);
      label.efficiency_score[m] = child.Uniform(0.1, 1.0);
      label.qerror_mean[m] = child.Uniform(1.0, 40.0);
      label.latency_ms[m] = child.Uniform(0.1, 130.0);
    }
    out.labels.push_back(label);
  }
  return out;
}

autoce::advisor::AutoCeConfig HarnessConfig() {
  autoce::advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 6;
  cfg.validation_interval = 2;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  return cfg;
}

int FreshFit(const std::string& dir, uint64_t* digest) {
  Corpus corpus = MakeCorpus(12, 29);
  autoce::advisor::AutoCe advisor(HarnessConfig());
  autoce::Status st = advisor.EnableSnapshots(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "EnableSnapshots: %s\n", st.ToString().c_str());
    return 1;
  }
  st = advisor.Fit(corpus.graphs, corpus.labels);
  if (!st.ok()) {
    std::fprintf(stderr, "Fit: %s\n", st.ToString().c_str());
    return 1;
  }
  *digest = advisor.ModelDigest();
  return 0;
}

// Exercises the serving hot-reload path over the same store — the
// `serve.reload` kill site lives between loading a generation and
// installing it. The reloaded model must digest identically to the
// fitted one, proving a kill mid-reload can only ever leave a restarted
// server on a bit-identical durable generation.
int ReloadPass(const std::string& dir, uint64_t fit_digest) {
  auto server = autoce::serve::AdvisorServer::Open(dir);
  if (!server.ok()) {
    std::fprintf(stderr, "serve::Open: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  autoce::Status st = (*server)->Reload();  // armed runs die inside
  if (!st.ok()) {
    std::fprintf(stderr, "Reload: %s\n", st.ToString().c_str());
    return 1;
  }
  if ((*server)->advisor()->ModelDigest() != fit_digest) {
    std::fprintf(stderr, "reloaded model digest differs from fit\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: %s --dir=<snapshot dir> [--resume]\n",
                 argv[0]);
    return 2;
  }

  uint64_t digest = 0;
  if (resume) {
    auto resumed = autoce::advisor::AutoCe::ResumeFit(dir);
    if (resumed.ok()) {
      digest = resumed->ModelDigest();
    } else if (resumed.status().code() == autoce::StatusCode::kNotFound) {
      // The crash predated the first durable checkpoint: restart the
      // job from scratch, exactly what a supervisor would do.
      if (int rc = FreshFit(dir, &digest); rc != 0) return rc;
    } else {
      std::fprintf(stderr, "ResumeFit: %s\n",
                   resumed.status().ToString().c_str());
      return 1;
    }
  } else {
    if (int rc = FreshFit(dir, &digest); rc != 0) return rc;
  }
  if (int rc = ReloadPass(dir, digest); rc != 0) return rc;
  std::printf("DIGEST %016" PRIx64 "\n", digest);
  return 0;
}
