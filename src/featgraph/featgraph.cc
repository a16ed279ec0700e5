#include "featgraph/featgraph.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/hash.h"
#include "util/logging.h"
#include "util/stats.h"

namespace autoce::featgraph {

namespace {

/// Squashes unbounded statistics into stable NN-friendly ranges.
double SquashLog10(double v, double scale) {
  return std::clamp(std::log10(std::max(v, 1.0)) / scale, 0.0, 1.5);
}

double SquashSymmetric(double v, double scale) {
  return std::clamp(v / scale, -1.5, 1.5);
}

}  // namespace

FeatureExtractor::FeatureExtractor(FeatureGraphConfig config)
    : config_(config) {
  AUTOCE_CHECK(config_.max_columns >= 1);
}

FeatureGraph FeatureExtractor::Extract(const data::Dataset& dataset) const {
  const int m = config_.max_columns;
  const int k = FeatureGraphConfig::kFeaturesPerColumn;
  const int dim = config_.VertexDim();
  const int n = dataset.NumTables();

  FeatureGraph graph;
  graph.dataset_name = dataset.name();
  graph.vertices = nn::Matrix(static_cast<size_t>(n),
                              static_cast<size_t>(dim), 0.0);
  graph.edges =
      nn::Matrix(static_cast<size_t>(n), static_cast<size_t>(n), 0.0);

  for (int t = 0; t < n; ++t) {
    const data::Table& table = dataset.table(t);
    int cols = std::min(table.NumColumns(), m);

    // Per-column statistics (k features each).
    for (int c = 0; c < cols; ++c) {
      const data::Column& col = table.columns[static_cast<size_t>(c)];
      const stats::Moments mo = stats::ComputeMoments(col.values);
      double domain = static_cast<double>(std::max<int32_t>(1, col.domain_size));
      double range = mo.max - mo.min + 1.0;
      size_t base = static_cast<size_t>(c * k);
      graph.vertices(static_cast<size_t>(t), base + 0) =
          SquashSymmetric(mo.skewness, 10.0);
      graph.vertices(static_cast<size_t>(t), base + 1) =
          SquashSymmetric(mo.kurtosis, 20.0);
      graph.vertices(static_cast<size_t>(t), base + 2) =
          SquashLog10(domain, 6.0);
      graph.vertices(static_cast<size_t>(t), base + 3) =
          SquashLog10(range, 6.0);
      graph.vertices(static_cast<size_t>(t), base + 4) =
          std::clamp(mo.stddev / domain, 0.0, 1.0);
      graph.vertices(static_cast<size_t>(t), base + 5) =
          std::clamp(mo.mean / domain, 0.0, 1.0);
    }

    // Pairwise positional correlations (m x m block; inverse of F2). The
    // ratio is symmetric: compute the upper triangle and mirror it.
    size_t corr_base = static_cast<size_t>(k * m);
    auto corr = [&](int a, int b) -> double& {
      return graph.vertices(static_cast<size_t>(t),
                            corr_base + static_cast<size_t>(a * m + b));
    };
    for (int a = 0; a < cols; ++a) {
      corr(a, a) = 1.0;
      for (int b = a + 1; b < cols; ++b) {
        corr(a, b) = corr(b, a) = stats::PositionalMatchRatio(
            table.columns[static_cast<size_t>(a)].values,
            table.columns[static_cast<size_t>(b)].values);
      }
    }

    // Table-level features: log-rows, normalized column count.
    size_t tail = static_cast<size_t>((k + m) * m);
    graph.vertices(static_cast<size_t>(t), tail + 0) =
        SquashLog10(static_cast<double>(table.NumRows()), 7.0);
    graph.vertices(static_cast<size_t>(t), tail + 1) =
        std::min(1.5, static_cast<double>(table.NumColumns()) /
                          static_cast<double>(m));
  }

  // Edge matrix: join correlations (inverse of F3), symmetrized so the
  // GIN aggregation treats joins as undirected neighborhoods.
  for (const auto& fk : dataset.foreign_keys()) {
    double jc = dataset.JoinCorrelation(fk);
    graph.edges(static_cast<size_t>(fk.pk_table),
                static_cast<size_t>(fk.fk_table)) = jc;
    graph.edges(static_cast<size_t>(fk.fk_table),
                static_cast<size_t>(fk.pk_table)) = jc;
  }
  return graph;
}

std::vector<double> FeatureExtractor::Flatten(const FeatureGraph& graph,
                                              int max_tables) const {
  size_t dim = vertex_dim();
  size_t n = static_cast<size_t>(max_tables);
  std::vector<double> out(n * dim + n * n, 0.0);
  size_t rows = std::min<size_t>(graph.vertices.rows(), n);
  for (size_t t = 0; t < rows; ++t) {
    for (size_t d = 0; d < dim; ++d) {
      out[t * dim + d] = graph.vertices(t, d);
    }
  }
  for (size_t a = 0; a < rows; ++a) {
    for (size_t b = 0; b < rows; ++b) {
      out[n * dim + a * n + b] = graph.edges(a, b);
    }
  }
  return out;
}

uint64_t GraphFingerprint(const FeatureGraph& graph) {
  using util::Fnv1a;
  uint64_t h = Fnv1a(graph.dataset_name.data(), graph.dataset_name.size());
  uint64_t dims[2] = {static_cast<uint64_t>(graph.vertices.rows()),
                      static_cast<uint64_t>(graph.vertices.cols())};
  h = Fnv1a(dims, sizeof(dims), h);
  h = Fnv1a(graph.vertices.data(), graph.vertices.size() * sizeof(double), h);
  h = Fnv1a(graph.edges.data(), graph.edges.size() * sizeof(double), h);
  return h;
}

Status ValidateGraph(const FeatureGraph& graph, size_t expected_vertex_dim) {
  const std::string tag =
      graph.dataset_name.empty() ? "<unnamed>" : graph.dataset_name;
  if (graph.vertices.rows() == 0) {
    return Status::InvalidArgument("feature graph " + tag +
                                   " has no vertices");
  }
  if (graph.vertices.cols() != expected_vertex_dim) {
    return Status::InvalidArgument(
        "feature graph " + tag + " vertex dim " +
        std::to_string(graph.vertices.cols()) +
        " does not match extractor config dim " +
        std::to_string(expected_vertex_dim));
  }
  if (graph.edges.rows() != graph.vertices.rows() ||
      graph.edges.cols() != graph.vertices.rows()) {
    return Status::InvalidArgument(
        "feature graph " + tag + " edge matrix is " +
        std::to_string(graph.edges.rows()) + "x" +
        std::to_string(graph.edges.cols()) + ", expected " +
        std::to_string(graph.vertices.rows()) + "x" +
        std::to_string(graph.vertices.rows()));
  }
  if (!nn::IsFinite(graph.vertices) || !nn::IsFinite(graph.edges)) {
    return Status::InvalidArgument("feature graph " + tag +
                                   " contains non-finite entries");
  }
  return Status::OK();
}

FeatureGraph MixupGraphs(const FeatureGraph& a, const FeatureGraph& b,
                         double lambda) {
  AUTOCE_CHECK(a.vertices.cols() == b.vertices.cols());
  lambda = std::clamp(lambda, 0.0, 1.0);
  size_t n = std::max(a.vertices.rows(), b.vertices.rows());
  size_t dim = a.vertices.cols();

  FeatureGraph out;
  out.dataset_name = a.dataset_name + "+" + b.dataset_name;
  out.vertices = nn::Matrix(n, dim, 0.0);
  out.edges = nn::Matrix(n, n, 0.0);
  for (size_t t = 0; t < n; ++t) {
    for (size_t d = 0; d < dim; ++d) {
      double va = t < a.vertices.rows() ? a.vertices(t, d) : 0.0;
      double vb = t < b.vertices.rows() ? b.vertices(t, d) : 0.0;
      out.vertices(t, d) = lambda * va + (1.0 - lambda) * vb;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double ea = (i < a.edges.rows() && j < a.edges.cols()) ? a.edges(i, j)
                                                             : 0.0;
      double eb = (i < b.edges.rows() && j < b.edges.cols()) ? b.edges(i, j)
                                                             : 0.0;
      out.edges(i, j) = lambda * ea + (1.0 - lambda) * eb;
    }
  }
  return out;
}

}  // namespace autoce::featgraph
