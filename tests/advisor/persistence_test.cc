#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/snapshot.h"

namespace autoce::advisor {
namespace {

/// Builds a tiny corpus with synthetic labels (no testbed run needed):
/// label structure only has to be internally consistent for persistence
/// round-trip checks.
struct TinyCorpus {
  std::vector<featgraph::FeatureGraph> graphs;
  std::vector<DatasetLabel> labels;
};

TinyCorpus MakeTinyCorpus(int n) {
  TinyCorpus out;
  featgraph::FeatureExtractor fx;
  Rng rng(8);
  for (int i = 0; i < n; ++i) {
    data::DatasetGenParams p;
    p.min_tables = 1;
    p.max_tables = 3;
    p.min_rows = 100;
    p.max_rows = 250;
    Rng child = rng.Fork(static_cast<uint64_t>(i));
    out.graphs.push_back(fx.Extract(data::GenerateDataset(p, &child)));
    DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = child.Uniform(0.1, 1.0);
      label.efficiency_score[m] = child.Uniform(0.1, 1.0);
      label.qerror_mean[m] = child.Uniform(1.0, 50.0);
      label.latency_ms[m] = child.Uniform(0.1, 100.0);
    }
    out.labels.push_back(label);
  }
  return out;
}

TEST(PersistenceTest, SaveLoadRoundTripPreservesRecommendations) {
  TinyCorpus corpus = MakeTinyCorpus(16);
  AutoCeConfig cfg;
  cfg.dml.epochs = 8;
  cfg.gin.hidden = 12;
  cfg.gin.embedding_dim = 6;
  cfg.knn_k = 3;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  std::string path = std::string(::testing::TempDir()) + "/advisor.ace";
  ASSERT_TRUE(advisor.Save(path).ok());

  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->RcsSize(), advisor.RcsSize());
  EXPECT_NEAR(loaded->DriftThreshold(), advisor.DriftThreshold(), 1e-9);
  EXPECT_EQ(loaded->config().knn_k, 3);

  // Every recommendation must match exactly (same embeddings, same RCS).
  TinyCorpus probes = MakeTinyCorpus(6);
  for (const auto& g : probes.graphs) {
    for (double w : {1.0, 0.7, 0.3}) {
      auto a = advisor.Recommend(g, w);
      auto b = loaded->Recommend(g, w);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->model, b->model);
      EXPECT_EQ(a->neighbors, b->neighbors);
      for (size_t m = 0; m < a->score_vector.size(); ++m) {
        EXPECT_NEAR(a->score_vector[m], b->score_vector[m], 1e-12);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedAdvisorSupportsOnlineUpdates) {
  TinyCorpus corpus = MakeTinyCorpus(12);
  AutoCeConfig cfg;
  cfg.dml.epochs = 6;
  cfg.gin.hidden = 12;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/advisor2.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok());

  TinyCorpus extra = MakeTinyCorpus(1);
  size_t before = loaded->RcsSize();
  ASSERT_TRUE(
      loaded->AddLabeledSample(extra.graphs[0], extra.labels[0]).ok());
  EXPECT_EQ(loaded->RcsSize(), before + 1);
  std::remove(path.c_str());
}

TEST(PersistenceTest, RoundTripPreservesDegradedLabelsAndFailedFlags) {
  // Labels carrying failed testbed cells (sentinel-floor scores, capped
  // raw metrics) must survive Save/Load bit for bit: the failed[] flags
  // drive the Eq. 3-4 renormalization on any later online update, so a
  // lossy round trip would silently change future label math.
  TinyCorpus corpus = MakeTinyCorpus(14);
  Rng rng(41);
  for (auto& label : corpus.labels) {
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      if (rng.Uniform(0.0, 1.0) < 0.3) {
        label.failed[m] = true;
        label.accuracy_score[m] = kScoreFloor;
        label.efficiency_score[m] = kScoreFloor;
        label.qerror_mean[m] = kQErrorCap;
        label.latency_ms[m] = kLatencyCapMs;
      }
    }
  }
  AutoCeConfig cfg;
  cfg.dml.epochs = 6;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  std::string path = std::string(::testing::TempDir()) + "/degraded.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ModelDigest(), advisor.ModelDigest());
  std::remove(path.c_str());
}

TEST(PersistenceTest, UnfittedAdvisorRefusesToSave) {
  AutoCe advisor;
  EXPECT_FALSE(advisor.Save("/tmp/never.ace").ok());
}

TEST(PersistenceTest, LoadRejectsGarbageFile) {
  std::string path = std::string(::testing::TempDir()) + "/garbage.ace";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a model file", f);
  std::fclose(f);
  auto loaded = AutoCe::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadOfTruncatedFileFailsCleanly) {
  // A crash mid-Save leaves a prefix of the file. Every header byte and
  // a deterministic sample of longer prefixes must yield a clean Status
  // error — never a crash or an OOM-sized allocation.
  TinyCorpus corpus = MakeTinyCorpus(10);
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/trunc.ace";
  ASSERT_TRUE(advisor.Save(path).ok());

  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  ASSERT_GT(size, 256);

  std::vector<long> cuts;
  for (long i = 0; i < 64; ++i) cuts.push_back(i);
  Rng rng(2025);
  for (int i = 0; i < 96; ++i) {
    cuts.push_back(static_cast<long>(
        rng.UniformInt(64, static_cast<int>(size) - 1)));
  }
  std::string cut_path = std::string(::testing::TempDir()) + "/cut.ace";
  for (long cut : cuts) {
    FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, static_cast<size_t>(cut), out),
              static_cast<size_t>(cut));
    ASSERT_EQ(std::fclose(out), 0);
    auto loaded = AutoCe::Load(cut_path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes parsed";
  }
  std::remove(cut_path.c_str());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadAcceptsVersion2Files) {
  // The v2 -> v3 bump only pinned the on-disk byte order (identical on
  // little-endian hosts), so a v2 file must still load. Synthesize one
  // by patching the version word of a fresh save.
  TinyCorpus corpus = MakeTinyCorpus(10);
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  std::string path = std::string(::testing::TempDir()) + "/v2.ace";
  ASSERT_TRUE(advisor.Save(path).ok());

  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);  // magic "ACE1", then the u32 version
  uint32_t v2 = 2;
  ASSERT_EQ(std::fwrite(&v2, sizeof(v2), 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);

  auto loaded = AutoCe::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ModelDigest(), advisor.ModelDigest());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadRejectsMissingFile) {
  auto loaded = AutoCe::Load("/nonexistent/advisor.ace");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string U64s(std::initializer_list<uint64_t> values) {
  std::string out;
  for (uint64_t v : values) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));  // LE host
  }
  return out;
}

/// The ways a persisted RCS graph can be mis-shaped while its framing
/// stays readable.
enum class Misshape {
  kTransposedVertices,  ///< vertex header rows x cols swapped, same payload
  kOverflowingEmpty,    ///< 2^32 x 2^32 vertex header, empty payload
  kNonSquareEdges,      ///< n x n edge header rewritten as 1 x n*n
};

/// Applies `how` to the first RCS graph (with >= 2 vertices) of a
/// serialized RCS, located by its `rows, cols, rows*cols` matrix
/// framing.
std::string Misshapen(std::string bytes, const AutoCe& advisor,
                      Misshape how) {
  const featgraph::FeatureGraph* graph = nullptr;
  for (const auto& g : advisor.rcs_graphs()) {
    if (g.vertices.rows() >= 2) {
      graph = &g;
      break;
    }
  }
  EXPECT_NE(graph, nullptr);
  if (graph == nullptr) return bytes;
  const uint64_t n = graph->vertices.rows(), d = graph->vertices.cols();
  std::string vertex_header = U64s({n, d, n * d});
  std::string edge_header = U64s({n, n, n * n});
  size_t at = bytes.find(vertex_header);
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) return bytes;
  switch (how) {
    case Misshape::kTransposedVertices:
      bytes.replace(at, vertex_header.size(), U64s({d, n, n * d}));
      break;
    case Misshape::kOverflowingEmpty:
      bytes.replace(at, vertex_header.size() + n * d * sizeof(double),
                    U64s({uint64_t{1} << 32, uint64_t{1} << 32, 0}));
      break;
    case Misshape::kNonSquareEdges: {
      size_t edges = bytes.find(edge_header, at);
      EXPECT_NE(edges, std::string::npos);
      if (edges == std::string::npos) return bytes;
      bytes.replace(edges, edge_header.size(), U64s({1, n * n, n * n}));
      break;
    }
  }
  return bytes;
}

constexpr Misshape kAllMisshapes[] = {Misshape::kTransposedVertices,
                                      Misshape::kOverflowingEmpty,
                                      Misshape::kNonSquareEdges};

TEST(PersistenceTest, LoadRejectsMisshapedRcsGraphAsDataLoss) {
  // A mis-shaped RCS graph would abort the first GIN forward; the
  // decoder must refuse it as corrupt data instead.
  TinyCorpus corpus = MakeTinyCorpus(10);
  AutoCeConfig cfg;
  cfg.dml.epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  const std::string path =
      std::string(::testing::TempDir()) + "/misshaped.ace";
  ASSERT_TRUE(advisor.Save(path).ok());
  const std::string original = ReadFileBytes(path);
  for (Misshape how : kAllMisshapes) {
    std::string bytes = Misshapen(original, advisor, how);
    ASSERT_NE(bytes, original);
    WriteFileBytes(path, bytes);
    auto loaded = AutoCe::Load(path);
    ASSERT_FALSE(loaded.ok()) << static_cast<int>(how);
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << static_cast<int>(how) << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, SnapshotRejectsMisshapedRcsGraphAsDataLoss) {
  // The same shape checks guard the `rcs` snapshot section: a committed
  // (CRC-valid) generation with a mis-shaped member resumes as DataLoss.
  TinyCorpus corpus = MakeTinyCorpus(10);
  AutoCeConfig cfg;
  cfg.dml.epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  for (Misshape how : kAllMisshapes) {
    const std::string dir = std::string(::testing::TempDir()) +
                            "/misshaped_snap_" +
                            std::to_string(static_cast<int>(how));
    ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
    ASSERT_TRUE(advisor.SaveSnapshot().ok());
    auto store = util::SnapshotStore::Open(dir);
    ASSERT_TRUE(store.ok());
    auto sections = store->LoadLatest();
    ASSERT_TRUE(sections.ok());
    bool patched = false;
    for (auto& section : *sections) {
      if (section.name != "rcs") continue;
      std::string bytes = Misshapen(section.payload, advisor, how);
      patched = bytes != section.payload;
      section.payload = std::move(bytes);
    }
    ASSERT_TRUE(patched);
    ASSERT_TRUE(store->Commit(*sections).ok());
    auto resumed = AutoCe::ResumeFit(dir);
    ASSERT_FALSE(resumed.ok()) << static_cast<int>(how);
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss)
        << static_cast<int>(how) << ": " << resumed.status().ToString();
  }
}

}  // namespace
}  // namespace autoce::advisor
