#include <gtest/gtest.h>

#include "query/query_serde.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

TEST(PredicateTest, KeyRangeContains) {
  KeyRange r{10, 20};
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9));
  EXPECT_FALSE(r.Contains(21));
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((KeyRange{5, 4}).empty());
}

TEST(PredicateTest, AllCompareOps) {
  Value five = Value::Int(5);
  auto eval = [&](CompareOp op, int64_t v) {
    return ColumnCondition{0, op, five}.Eval(Value::Int(v));
  };
  EXPECT_TRUE(eval(CompareOp::kEq, 5));
  EXPECT_FALSE(eval(CompareOp::kEq, 4));
  EXPECT_TRUE(eval(CompareOp::kNe, 4));
  EXPECT_TRUE(eval(CompareOp::kLt, 4));
  EXPECT_FALSE(eval(CompareOp::kLt, 5));
  EXPECT_TRUE(eval(CompareOp::kLe, 5));
  EXPECT_TRUE(eval(CompareOp::kGt, 6));
  EXPECT_TRUE(eval(CompareOp::kGe, 5));
  EXPECT_FALSE(eval(CompareOp::kGe, 4));
}

TEST(PredicateTest, ConjunctiveConditions) {
  SelectQuery q;
  q.conditions.push_back(ColumnCondition{1, CompareOp::kGe, Value::Str("b")});
  q.conditions.push_back(ColumnCondition{1, CompareOp::kLt, Value::Str("d")});
  Tuple in_range({Value::Int(1), Value::Str("c")});
  Tuple below({Value::Int(2), Value::Str("a")});
  Tuple above({Value::Int(3), Value::Str("x")});
  EXPECT_TRUE(q.MatchesConditions(in_range));
  EXPECT_FALSE(q.MatchesConditions(below));
  EXPECT_FALSE(q.MatchesConditions(above));
}

TEST(PredicateTest, NormalizeProjectionAddsKeySortsDedups) {
  SelectQuery q;
  q.projection = {5, 2, 5, 3};
  q.NormalizeProjection();
  EXPECT_EQ(q.projection, (std::vector<size_t>{0, 2, 3, 5}));
  SelectQuery all;
  all.NormalizeProjection();
  EXPECT_TRUE(all.projection.empty());  // empty = all columns
}

TEST(PredicateTest, FilteredColumns) {
  SelectQuery q;
  q.projection = {0, 2, 4};
  EXPECT_EQ(q.FilteredColumns(6), (std::vector<size_t>{1, 3, 5}));
  SelectQuery all;
  EXPECT_TRUE(all.FilteredColumns(6).empty());
}

TEST(QuerySerdeTest, SelectQueryRoundTrip) {
  SelectQuery q;
  q.table = "orders";
  q.range = KeyRange{-5, 999};
  q.conditions.push_back(ColumnCondition{2, CompareOp::kGe, Value::Str("x")});
  q.conditions.push_back(ColumnCondition{3, CompareOp::kLt, Value::Int(7)});
  q.projection = {0, 2, 3};

  QueryBatch batch;
  batch.table = "orders";
  batch.queries = {q};
  ByteWriter w;
  SerializeQueryBatch(batch, &w);
  ByteReader r(Slice(w.buffer()));
  auto decoded = DeserializeQueryBatch(&r);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->queries.size(), 1u);
  const SelectQuery* back = &decoded->queries[0];
  EXPECT_EQ(back->table, "orders");
  EXPECT_EQ(back->range.lo, -5);
  EXPECT_EQ(back->range.hi, 999);
  ASSERT_EQ(back->conditions.size(), 2u);
  EXPECT_EQ(back->conditions[0].col_idx, 2u);
  EXPECT_EQ(back->conditions[0].op, CompareOp::kGe);
  EXPECT_EQ(back->conditions[0].operand.AsString(), "x");
  EXPECT_EQ(back->conditions[1].operand.AsInt(), 7);
  EXPECT_EQ(back->projection, q.projection);
}

TEST(QuerySerdeTest, ResultRowsRoundTripFullWidth) {
  Schema schema = testutil::MakeWideSchema(4);
  Rng rng(3);
  std::vector<ResultRow> rows;
  for (int64_t k = 0; k < 10; ++k) {
    Tuple t = testutil::MakeTuple(schema, k, &rng);
    ResultRow row;
    row.key = k;
    row.values = t.values();
    rows.push_back(std::move(row));
  }
  ByteWriter w;
  SerializeResultRows(rows, &w);
  ByteReader r(Slice(w.buffer()));
  auto back = DeserializeResultRows(&r, schema, {});
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*back)[i].key, rows[i].key);
    EXPECT_EQ((*back)[i].values, rows[i].values);
  }
}

TEST(QuerySerdeTest, ResultRowsRoundTripProjected) {
  Schema schema = testutil::MakeWideSchema(6);
  std::vector<size_t> projection = {0, 3, 5};
  Rng rng(4);
  std::vector<ResultRow> rows;
  for (int64_t k = 0; k < 5; ++k) {
    Tuple t = testutil::MakeTuple(schema, k, &rng);
    ResultRow row;
    row.key = k;
    for (size_t c : projection) row.values.push_back(t.value(c));
    rows.push_back(std::move(row));
  }
  ByteWriter w;
  SerializeResultRows(rows, &w);
  ByteReader r(Slice(w.buffer()));
  auto back = DeserializeResultRows(&r, schema, projection);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 5u);
  EXPECT_EQ((*back)[2].values[1], rows[2].values[1]);
}

TEST(QuerySerdeTest, RowBytesMatchSerializedSize) {
  Schema schema = testutil::MakeWideSchema(5);
  Rng rng(5);
  Tuple t = testutil::MakeTuple(schema, 1, &rng);
  ResultRow row;
  row.key = 1;
  row.values = t.values();
  ByteWriter w;
  for (const Value& v : row.values) v.Serialize(&w);
  EXPECT_EQ(row.SerializedSize(), w.size());
}

TEST(QuerySerdeTest, CorruptQueryRejected) {
  ByteWriter w;
  w.PutString("t");
  ByteReader r(Slice(w.buffer()));
  EXPECT_FALSE(DeserializeSelectQuery(&r).ok());  // truncated
}

}  // namespace
}  // namespace vbtree
