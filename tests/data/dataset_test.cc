#include "data/dataset.h"

#include <gtest/gtest.h>

namespace autoce::data {
namespace {

Table MakeTable(const std::string& name,
                std::vector<std::pair<std::string, std::vector<int32_t>>> cols,
                int pk = -1) {
  Table t;
  t.name = name;
  for (auto& [cname, values] : cols) {
    Column c;
    c.name = cname;
    c.values = values;
    c.domain_size = 0;
    for (int32_t v : values) c.domain_size = std::max(c.domain_size, v);
    if (c.domain_size == 0) c.domain_size = 1;
    t.columns.push_back(std::move(c));
  }
  t.primary_key = pk;
  return t;
}

TEST(ColumnTest, DistinctAndMinMax) {
  Column c;
  c.values = {3, 1, 3, 2, 1};
  EXPECT_EQ(c.CountDistinct(), 3);
  EXPECT_EQ(c.MinValue(), 1);
  EXPECT_EQ(c.MaxValue(), 3);
  Column empty;
  EXPECT_EQ(empty.CountDistinct(), 0);
  EXPECT_EQ(empty.MinValue(), 0);
}

TEST(TableTest, ShapeAccessors) {
  Table t = MakeTable("t", {{"a", {1, 2, 3}}, {"b", {4, 5, 6}}});
  EXPECT_EQ(t.NumRows(), 3);
  EXPECT_EQ(t.NumColumns(), 2);
  EXPECT_EQ(t.FindColumn("b"), 1);
  EXPECT_EQ(t.FindColumn("zzz"), -1);
}

class TwoTableDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // parent(id, x), child(fk, y); child.fk references parent.id.
    ds_.set_name("two");
    parent_id_ = ds_.AddTable(
        MakeTable("parent", {{"id", {1, 2, 3, 4}}, {"x", {5, 5, 7, 9}}}, 0));
    child_id_ = ds_.AddTable(
        MakeTable("child", {{"fk", {1, 1, 2, 2, 2, 3}},
                            {"y", {1, 2, 3, 1, 2, 3}}}));
    ForeignKey fk{child_id_, 0, parent_id_, 0};
    ASSERT_TRUE(ds_.AddForeignKey(fk).ok());
  }

  Dataset ds_;
  int parent_id_, child_id_;
};

TEST_F(TwoTableDatasetTest, Totals) {
  EXPECT_EQ(ds_.NumTables(), 2);
  EXPECT_EQ(ds_.TotalRows(), 10);
  EXPECT_EQ(ds_.TotalColumns(), 4);
  EXPECT_GT(ds_.TotalDomainSize(), 0);
}

TEST_F(TwoTableDatasetTest, FindAndJoins) {
  EXPECT_EQ(ds_.FindTable("child"), child_id_);
  EXPECT_EQ(ds_.FindTable("none"), -1);
  EXPECT_EQ(ds_.JoinsOf(parent_id_).size(), 1u);
  EXPECT_EQ(ds_.JoinsOf(child_id_).size(), 1u);
}

TEST_F(TwoTableDatasetTest, Connectivity) {
  EXPECT_TRUE(ds_.IsConnected({parent_id_, child_id_}));
  EXPECT_TRUE(ds_.IsConnected({parent_id_}));
  EXPECT_FALSE(ds_.IsConnected({}));
}

TEST_F(TwoTableDatasetTest, JoinCorrelation) {
  // FK distinct values {1,2,3}; PK distinct values {1,2,3,4}: 3/4.
  EXPECT_DOUBLE_EQ(ds_.JoinCorrelation(ds_.foreign_keys()[0]), 0.75);
}

TEST_F(TwoTableDatasetTest, ValidateOk) {
  EXPECT_TRUE(ds_.Validate().ok());
}

TEST(DatasetValidateTest, RejectsBadForeignKey) {
  Dataset ds;
  ds.AddTable(MakeTable("a", {{"x", {1, 2}}}));
  ForeignKey fk{0, 0, 5, 0};
  EXPECT_FALSE(ds.AddForeignKey(fk).ok());
  ForeignKey self{0, 0, 0, 0};
  EXPECT_FALSE(ds.AddForeignKey(self).ok());
}

TEST(DatasetValidateTest, DetectsNonUniquePk) {
  Dataset ds;
  ds.AddTable(MakeTable("a", {{"id", {1, 1, 2}}}, 0));
  Status s = ds.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetValidateTest, DetectsRaggedColumns) {
  Dataset ds;
  Table t = MakeTable("a", {{"x", {1, 2, 3}}});
  Column extra;
  extra.name = "y";
  extra.domain_size = 5;
  extra.values = {1, 2};  // wrong length
  t.columns.push_back(extra);
  ds.AddTable(std::move(t));
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetValidateTest, DetectsValueOutOfDomain) {
  Dataset ds;
  Table t = MakeTable("a", {{"x", {1, 2, 3}}});
  t.columns[0].domain_size = 2;  // 3 is now out of range
  ds.AddTable(std::move(t));
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetValidateTest, FirstErrorOfEachTableKeepsItsOrder) {
  // Column checks run in column order (length, then domain size, then
  // values); a duplicate PK is reported only after every column of its
  // table passed, even though the PK values are checked in the same
  // pass as their domain.
  auto validate = [](std::vector<Table> tables) {
    Dataset ds;
    for (Table& t : tables) ds.AddTable(std::move(t));
    return ds.Validate().message();
  };
  Table out_then_ragged =
      MakeTable("a", {{"x", {1, 2, 3}}, {"y", {1, 9, 2}}, {"z", {1, 2}}});
  out_then_ragged.columns[1].domain_size = 3;
  Table ragged_then_out =
      MakeTable("a", {{"x", {1, 2, 3}}, {"z", {1, 2}}, {"y", {1, 9, 2}}});
  ragged_then_out.columns[2].domain_size = 3;
  // b: the PK (column 1) holds a duplicate; column 0 is out of domain.
  Table dup_after_out = MakeTable("b", {{"v", {1, 7, 2}}, {"id", {1, 1, 2}}}, 1);
  dup_after_out.columns[0].domain_size = 2;
  // c: the PK (column 0) holds a duplicate; a later column is out of
  // domain, and so is a value after the duplicate in the PK itself.
  Table dup_then_later_out =
      MakeTable("c", {{"id", {2, 2, 1}}, {"w", {1, 5, 1}}}, 0);
  dup_then_later_out.columns[1].domain_size = 4;
  Table dup_then_own_out = MakeTable("d", {{"id", {1, 1, 3}}}, 0);
  dup_then_own_out.columns[0].domain_size = 2;
  Table dup_only = MakeTable("e", {{"x", {4, 4, 4}}, {"id", {3, 1, 3}}}, 1);

  EXPECT_EQ(validate({out_then_ragged, dup_after_out}),
            "column y value out of domain");
  EXPECT_EQ(validate({ragged_then_out, dup_after_out}),
            "ragged columns in table a");
  EXPECT_EQ(validate({dup_after_out, out_then_ragged}),
            "column v value out of domain");
  EXPECT_EQ(validate({dup_then_later_out}), "column w value out of domain");
  EXPECT_EQ(validate({dup_then_own_out}), "column id value out of domain");
  EXPECT_EQ(validate({dup_only, out_then_ragged}), "PK of e not unique");
  Table bad_pk_index = MakeTable("f", {{"x", {1, 1}}, {"y", {1, 7}}}, 2);
  bad_pk_index.columns[1].domain_size = 3;
  EXPECT_EQ(validate({bad_pk_index}), "column y value out of domain");
  bad_pk_index.columns[1].domain_size = 7;
  EXPECT_EQ(validate({bad_pk_index}), "PK index out of range in f");
}

TEST(DatasetValidateTest, FkMustTargetPkColumn) {
  Dataset ds;
  ds.AddTable(MakeTable("p", {{"id", {1, 2}}, {"x", {3, 4}}}, 0));
  ds.AddTable(MakeTable("c", {{"fk", {1, 2}}}));
  // Edge pointing at the non-PK column "x".
  ForeignKey fk{1, 0, 0, 1};
  ASSERT_TRUE(ds.AddForeignKey(fk).ok());  // structurally fine
  EXPECT_FALSE(ds.Validate().ok());        // semantically rejected
}

}  // namespace
}  // namespace autoce::data
