#include "engine/plan_executor.h"

#include <algorithm>

#include "engine/executor.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::engine {

namespace {

/// A scan whose estimated output is below this fraction of the table
/// uses the sorted index path ("index scan"); otherwise it scans
/// sequentially. Mirrors how injected cardinalities flip scan choices in
/// PostgreSQL (paper Table V discussion).
constexpr double kIndexScanSelectivity = 0.05;

}  // namespace

PlanExecutor::PlanExecutor(const data::Dataset* dataset, ExecOptions opts)
    : dataset_(dataset), opts_(opts) {}

const std::vector<std::pair<int32_t, int32_t>>& PlanExecutor::Index(
    int table, int column) {
  int64_t key = (static_cast<int64_t>(table) << 32) | column;
  auto it = indexes_.find(key);
  if (it != indexes_.end()) return it->second;
  const auto& values =
      dataset_->table(table).columns[static_cast<size_t>(column)].values;
  std::vector<std::pair<int32_t, int32_t>> idx;
  idx.reserve(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    idx.emplace_back(values[r], static_cast<int32_t>(r));
  }
  std::sort(idx.begin(), idx.end());
  return indexes_.emplace(key, std::move(idx)).first->second;
}

PlanExecutor::Intermediate PlanExecutor::ExecuteScan(const query::Query& q,
                                                     const PlanNode& node) {
  int t = node.table;
  const data::Table& table = dataset_->table(t);
  auto preds = q.PredicatesOn(t);

  Intermediate out;
  out.tables = {t};
  out.row_ids.resize(1);

  double rows = static_cast<double>(table.NumRows());
  bool use_index =
      !preds.empty() &&
      node.estimated_cardinality < kIndexScanSelectivity * rows;

  if (use_index) {
    // Index scan: range-probe the first predicate's index, then verify
    // the remaining predicates on the candidates.
    const auto& pred = preds[0];
    const auto& idx = Index(t, pred.column);
    auto lo_it = std::lower_bound(
        idx.begin(), idx.end(),
        std::make_pair(pred.lo, std::numeric_limits<int32_t>::min()));
    auto hi_it = std::upper_bound(
        idx.begin(), idx.end(),
        std::make_pair(pred.hi, std::numeric_limits<int32_t>::max()));
    for (auto it = lo_it; it != hi_it; ++it) {
      int32_t r = it->second;
      bool ok = true;
      for (size_t p = 1; p < preds.size(); ++p) {
        int32_t v = table.columns[static_cast<size_t>(preds[p].column)]
                        .values[static_cast<size_t>(r)];
        if (!preds[p].Matches(v)) {
          ok = false;
          break;
        }
      }
      if (ok) out.row_ids[0].push_back(r);
    }
    std::sort(out.row_ids[0].begin(), out.row_ids[0].end());
  } else {
    out.row_ids[0] = FilterRows(table, preds);
  }
  return out;
}

PlanExecutor::Intermediate PlanExecutor::ExecuteHashJoin(
    const PlanNode& node, Intermediate probe, Intermediate build,
    bool* aborted) {
  // Locate the key column on each side.
  auto side_of = [&](const Intermediate& inter, int table) {
    for (size_t i = 0; i < inter.tables.size(); ++i) {
      if (inter.tables[i] == table) return static_cast<int>(i);
    }
    return -1;
  };

  int probe_pos = side_of(probe, node.edge.fk_table);
  int probe_col = node.edge.fk_column;
  int build_pos = side_of(build, node.edge.pk_table);
  int build_col = node.edge.pk_column;
  if (probe_pos < 0) {
    probe_pos = side_of(probe, node.edge.pk_table);
    probe_col = node.edge.pk_column;
    build_pos = side_of(build, node.edge.fk_table);
    build_col = node.edge.fk_column;
  }
  AUTOCE_CHECK(probe_pos >= 0 && build_pos >= 0);

  const auto& probe_values =
      dataset_->table(probe.tables[static_cast<size_t>(probe_pos)])
          .columns[static_cast<size_t>(probe_col)]
          .values;
  const auto& build_values =
      dataset_->table(build.tables[static_cast<size_t>(build_pos)])
          .columns[static_cast<size_t>(build_col)]
          .values;

  // Build phase.
  std::unordered_map<int32_t, std::vector<int32_t>> ht;
  int64_t build_n = build.NumTuples();
  ht.reserve(static_cast<size_t>(build_n));
  for (int32_t i = 0; i < build_n; ++i) {
    int32_t row =
        build.row_ids[static_cast<size_t>(build_pos)][static_cast<size_t>(i)];
    ht[build_values[static_cast<size_t>(row)]].push_back(i);
  }

  // Probe phase.
  Intermediate out;
  out.tables = probe.tables;
  out.tables.insert(out.tables.end(), build.tables.begin(),
                    build.tables.end());
  out.row_ids.resize(out.tables.size());

  int64_t probe_n = probe.NumTuples();
  for (int32_t i = 0; i < probe_n; ++i) {
    int32_t row =
        probe.row_ids[static_cast<size_t>(probe_pos)][static_cast<size_t>(i)];
    auto it = ht.find(probe_values[static_cast<size_t>(row)]);
    if (it == ht.end()) continue;
    for (int32_t bi : it->second) {
      for (size_t c = 0; c < probe.row_ids.size(); ++c) {
        out.row_ids[c].push_back(probe.row_ids[c][static_cast<size_t>(i)]);
      }
      for (size_t c = 0; c < build.row_ids.size(); ++c) {
        out.row_ids[probe.row_ids.size() + c].push_back(
            build.row_ids[c][static_cast<size_t>(bi)]);
      }
    }
    if (out.NumTuples() > opts_.max_intermediate_rows) {
      *aborted = true;
      return out;
    }
  }
  return out;
}

PlanExecutor::Intermediate PlanExecutor::ExecuteNode(const query::Query& q,
                                                     const PlanNode& node,
                                                     bool* aborted) {
  if (node.kind == PlanNode::Kind::kScan) {
    Intermediate out = ExecuteScan(q, node);
    if (observer_) {
      observer_(JoinOrderOptimizer::SubQuery(q, out.tables), out.NumTuples());
    }
    return out;
  }
  Intermediate probe = ExecuteNode(q, *node.left, aborted);
  if (*aborted) return probe;
  Intermediate build = ExecuteNode(q, *node.right, aborted);
  if (*aborted) return build;
  Intermediate out =
      ExecuteHashJoin(node, std::move(probe), std::move(build), aborted);
  if (!*aborted && observer_) {
    std::vector<int> tables = out.tables;
    std::sort(tables.begin(), tables.end());
    observer_(JoinOrderOptimizer::SubQuery(q, tables), out.NumTuples());
  }
  return out;
}

ExecutionResult PlanExecutor::Execute(const query::Query& q,
                                      const PlanNode& plan) {
  Timer timer;
  bool aborted = false;
  Intermediate result = ExecuteNode(q, plan, &aborted);
  ExecutionResult out;
  out.output_rows = result.NumTuples();
  out.seconds = timer.ElapsedSeconds();
  out.completed = !aborted;
  return out;
}

}  // namespace autoce::engine
