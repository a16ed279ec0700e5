#include "data/dataset.h"

#include <algorithm>
#include <unordered_set>

#include "data/distinct.h"

namespace autoce::data {

int64_t Column::CountDistinct() const {
  return DistinctValues(values).count();
}

int32_t Column::MinValue() const {
  if (values.empty()) return 0;
  return *std::min_element(values.begin(), values.end());
}

int32_t Column::MaxValue() const {
  if (values.empty()) return 0;
  return *std::max_element(values.begin(), values.end());
}

int Table::FindColumn(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

int64_t Dataset::TotalRows() const {
  int64_t n = 0;
  for (const auto& t : tables_) n += t.NumRows();
  return n;
}

int Dataset::TotalColumns() const {
  int n = 0;
  for (const auto& t : tables_) n += t.NumColumns();
  return n;
}

int64_t Dataset::TotalDomainSize() const {
  int64_t n = 0;
  for (const auto& t : tables_) {
    for (const auto& c : t.columns) n += c.domain_size;
  }
  return n;
}

int Dataset::AddTable(Table table) {
  tables_.push_back(std::move(table));
  return static_cast<int>(tables_.size()) - 1;
}

Status Dataset::AddForeignKey(const ForeignKey& fk) {
  auto valid_col = [&](int t, int c) {
    return t >= 0 && t < NumTables() && c >= 0 &&
           c < tables_[static_cast<size_t>(t)].NumColumns();
  };
  if (!valid_col(fk.fk_table, fk.fk_column) ||
      !valid_col(fk.pk_table, fk.pk_column)) {
    return Status::InvalidArgument("foreign key references unknown column");
  }
  if (fk.fk_table == fk.pk_table) {
    return Status::InvalidArgument("self-join foreign keys are not supported");
  }
  fks_.push_back(fk);
  return Status::OK();
}

int Dataset::FindTable(const std::string& table_name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name == table_name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<ForeignKey> Dataset::JoinsOf(int t) const {
  std::vector<ForeignKey> out;
  for (const auto& fk : fks_) {
    if (fk.fk_table == t || fk.pk_table == t) out.push_back(fk);
  }
  return out;
}

bool Dataset::IsConnected(const std::vector<int>& table_ids) const {
  if (table_ids.empty()) return false;
  if (table_ids.size() == 1) return true;
  std::unordered_set<int> member(table_ids.begin(), table_ids.end());
  std::unordered_set<int> visited;
  std::vector<int> stack{table_ids[0]};
  visited.insert(table_ids[0]);
  while (!stack.empty()) {
    int t = stack.back();
    stack.pop_back();
    for (const auto& fk : fks_) {
      int other = -1;
      if (fk.fk_table == t) other = fk.pk_table;
      if (fk.pk_table == t) other = fk.fk_table;
      if (other >= 0 && member.count(other) && !visited.count(other)) {
        visited.insert(other);
        stack.push_back(other);
      }
    }
  }
  return visited.size() == member.size();
}

double Dataset::JoinCorrelation(const ForeignKey& fk) const {
  const Column& fk_col =
      tables_[static_cast<size_t>(fk.fk_table)]
          .columns[static_cast<size_t>(fk.fk_column)];
  const Column& pk_col =
      tables_[static_cast<size_t>(fk.pk_table)]
          .columns[static_cast<size_t>(fk.pk_column)];
  DistinctValues pk(pk_col.values);
  const int64_t pk_distinct = pk.count();
  if (pk_distinct == 0) return 0.0;
  // Count FK-distinct values that actually reference a PK value.
  const int64_t hits = pk.Erase(fk_col.values);
  return static_cast<double>(hits) / static_cast<double>(pk_distinct);
}

Status Dataset::Validate() const {
  for (const auto& t : tables_) {
    if (t.columns.empty()) {
      return Status::FailedPrecondition("table " + t.name + " has no columns");
    }
    const size_t rows = t.columns[0].values.size();
    bool pk_unique = true;
    for (size_t i = 0; i < t.columns.size(); ++i) {
      const Column& c = t.columns[i];
      if (c.values.size() != rows) {
        return Status::FailedPrecondition("ragged columns in table " + t.name);
      }
      if (c.domain_size <= 0) {
        return Status::FailedPrecondition("column " + c.name +
                                          " has non-positive domain");
      }
      bool in_domain = true;
      if (static_cast<int>(i) == t.primary_key) {
        // One pass checks the domain and marks the keys; a duplicate is
        // reported only after every column has passed its own checks.
        DistinctValues keys(c.values, 1, c.domain_size);
        in_domain = keys.out_of_range() == 0;
        pk_unique = keys.count() == static_cast<int64_t>(rows);
      } else {
        // v in [1, domain_size] <=> (uint32)(v - 1) < domain_size.
        const uint32_t domain = static_cast<uint32_t>(c.domain_size);
        for (int32_t v : c.values) {
          if (static_cast<uint32_t>(v) - 1u >= domain) {
            in_domain = false;
            break;
          }
        }
      }
      if (!in_domain) {
        return Status::FailedPrecondition("column " + c.name +
                                          " value out of domain");
      }
    }
    if (t.primary_key >= t.NumColumns()) {
      return Status::FailedPrecondition("PK index out of range in " + t.name);
    }
    if (!pk_unique) {
      return Status::FailedPrecondition("PK of " + t.name + " not unique");
    }
  }
  for (const auto& fk : fks_) {
    if (fk.pk_table < 0 || fk.pk_table >= NumTables() || fk.fk_table < 0 ||
        fk.fk_table >= NumTables()) {
      return Status::FailedPrecondition("FK references unknown table");
    }
    const Table& pk_t = tables_[static_cast<size_t>(fk.pk_table)];
    if (pk_t.primary_key != fk.pk_column) {
      return Status::FailedPrecondition(
          "FK must reference the PK column of the referenced table");
    }
  }
  return Status::OK();
}

}  // namespace autoce::data
