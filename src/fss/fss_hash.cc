#include "fss/fss_hash.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "util/hash.h"
#include "util/serde.h"

namespace autoce::fss {

namespace {

/// Appends one little-endian u32 to the canonical encoding. All fields
/// go through this fixed width so encodings of different queries can
/// never alias by concatenation.
void PutU32(BinaryWriter* w, int32_t v) {
  w->WriteU32(static_cast<uint32_t>(v));
}

}  // namespace

uint64_t FssBytesHash(const std::string& bytes) {
  return util::Fnv1a(bytes.data(), bytes.size());
}

FssKey MakeFssKey(const query::Query& q) {
  // Canonical orderings, independent of how the query was assembled.
  std::vector<int> tables = q.tables;
  std::sort(tables.begin(), tables.end());

  std::vector<data::ForeignKey> joins = q.joins;
  std::sort(joins.begin(), joins.end(),
            [](const data::ForeignKey& a, const data::ForeignKey& b) {
              return std::tie(a.fk_table, a.fk_column, a.pk_table, a.pk_column) <
                     std::tie(b.fk_table, b.fk_column, b.pk_table, b.pk_column);
            });

  std::vector<query::Predicate> preds = q.predicates;
  std::sort(preds.begin(), preds.end(),
            [](const query::Predicate& a, const query::Predicate& b) {
              return std::tie(a.table, a.column, a.op, a.lo, a.hi) <
                     std::tie(b.table, b.column, b.op, b.lo, b.hi);
            });

  // Shape bytes: relations, join edges, predicate (table, column, op).
  BinaryWriter shape;
  PutU32(&shape, static_cast<int32_t>(tables.size()));
  for (int t : tables) PutU32(&shape, t);
  PutU32(&shape, static_cast<int32_t>(joins.size()));
  for (const auto& j : joins) {
    PutU32(&shape, j.fk_table);
    PutU32(&shape, j.fk_column);
    PutU32(&shape, j.pk_table);
    PutU32(&shape, j.pk_column);
  }
  PutU32(&shape, static_cast<int32_t>(preds.size()));
  for (const auto& p : preds) {
    PutU32(&shape, p.table);
    PutU32(&shape, p.column);
    PutU32(&shape, static_cast<int32_t>(p.op));
  }

  // Full bytes: the shape plus each predicate's literal interval, in the
  // same canonical predicate order.
  BinaryWriter full;
  full.WriteBytes(shape.buffer().data(), shape.buffer().size());
  for (const auto& p : preds) {
    PutU32(&full, p.lo);
    PutU32(&full, p.hi);
  }

  FssKey key;
  key.shape_signature = shape.buffer();
  key.signature = full.buffer();
  key.fss_hash = FssBytesHash(key.shape_signature);
  key.literal_hash = FssBytesHash(key.signature);
  return key;
}

}  // namespace autoce::fss
