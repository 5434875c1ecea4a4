// Unit tests for the flat row index (rel::RowIndex,
// relational/row_index.hpp) and the contracts its users rely on:
// ascending buckets, wild rows kept aside by JoinIndex, hash-only lookup
// (colliding keys share a bucket and callers re-check values), remap
// under pruneIf, and watermark extension.
#include "relational/row_index.hpp"

#include <gtest/gtest.h>

#include "relational/ctable.hpp"

namespace faure::rel {
namespace {

std::vector<size_t> rowsOf(const RowIndex::Bucket& b) {
  std::vector<size_t> out;
  for (size_t r : b) out.push_back(r);
  return out;
}

TEST(RowIndexTest, EmptyIndexFindsNothing) {
  RowIndex idx;
  EXPECT_TRUE(idx.find(42).empty());
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.keyCount(), 0u);
}

TEST(RowIndexTest, BucketsKeepAscendingInsertionOrder) {
  RowIndex idx;
  for (size_t r = 0; r < 12; ++r) idx.add(r % 3, r);
  EXPECT_EQ(rowsOf(idx.find(0)), (std::vector<size_t>{0, 3, 6, 9}));
  EXPECT_EQ(rowsOf(idx.find(1)), (std::vector<size_t>{1, 4, 7, 10}));
  EXPECT_EQ(rowsOf(idx.find(2)), (std::vector<size_t>{2, 5, 8, 11}));
  EXPECT_TRUE(idx.find(3).empty());
  EXPECT_EQ(idx.size(), 12u);
  EXPECT_EQ(idx.keyCount(), 3u);
}

TEST(RowIndexTest, ManyKeysSurviveGrowthAndProbing) {
  // Enough distinct hashes to force several rehashes; hashes that differ
  // only in high bits or only in low bits share probe sequences.
  RowIndex idx;
  std::vector<size_t> hashes;
  for (size_t i = 0; i < 300; ++i) {
    hashes.push_back(i % 2 == 0 ? i : (i << 40));
  }
  for (size_t r = 0; r < hashes.size(); ++r) idx.add(hashes[r], r);
  idx.add(hashes[7], 300);
  EXPECT_EQ(idx.keyCount(), 300u);
  for (size_t r = 0; r < hashes.size(); ++r) {
    std::vector<size_t> want{r};
    if (r == 7) want.push_back(300);
    EXPECT_EQ(rowsOf(idx.find(hashes[r])), want) << "row " << r;
  }
  size_t total = 0;
  idx.forEachBucket([&](const RowIndex::Bucket& b) {
    total += rowsOf(b).size();
  });
  EXPECT_EQ(total, idx.size());
}

TEST(RowIndexTest, CollidingKeysShareABucketAndAreRecheckedByValue) {
  // The index is keyed by hash alone: two different keys with one hash
  // land in one bucket, and a lookup must re-check the stored key.
  std::vector<std::string> keys = {"alpha", "beta", "alpha", "gamma"};
  auto badHash = [](const std::string& k) { return k.size() % 2; };
  RowIndex idx;
  for (size_t r = 0; r < keys.size(); ++r) idx.add(badHash(keys[r]), r);
  std::vector<size_t> matches;
  for (size_t r : idx.find(badHash("alpha"))) {
    if (keys[r] == "alpha") matches.push_back(r);
  }
  EXPECT_EQ(rowsOf(idx.find(badHash("alpha"))),
            (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(matches, (std::vector<size_t>{0, 2}));
}

TEST(RowIndexTest, RemapDropsRemovedRowsAndEmptiedBuckets) {
  RowIndex idx;
  for (size_t r = 0; r < 6; ++r) idx.add(r < 2 ? 100 : 200 + r % 2, r);
  // Remove rows 0, 1 (all of hash 100) and 3; survivors shift down.
  std::vector<size_t> oldToNew = {SIZE_MAX, SIZE_MAX, 0, SIZE_MAX, 1, 2};
  idx.remap(oldToNew);
  EXPECT_TRUE(idx.find(100).empty());
  EXPECT_EQ(rowsOf(idx.find(200)), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(rowsOf(idx.find(201)), (std::vector<size_t>{2}));
  EXPECT_EQ(idx.keyCount(), 2u);
  EXPECT_EQ(idx.size(), 3u);
  // The remapped index keeps accepting rows.
  idx.add(201, 3);
  EXPECT_EQ(rowsOf(idx.find(201)), (std::vector<size_t>{2, 3}));
}

TEST(RowIndexTest, CopiesAreIndependent) {
  RowIndex a;
  a.add(1, 0);
  RowIndex b = a;
  b.add(1, 1);
  EXPECT_EQ(rowsOf(a.find(1)), (std::vector<size_t>{0}));
  EXPECT_EQ(rowsOf(b.find(1)), (std::vector<size_t>{0, 1}));
}

class RowIndexTableTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId u_ = reg_.declareInt("u_", 0, 9);

  Schema schema() {
    return Schema("E", {{"a", ValueType::Int}, {"b", ValueType::Int}});
  }
  Value v(int64_t n) { return Value::fromInt(n); }
  static size_t hashOf(const Value& val) {
    return JoinIndex::hashStep(JoinIndex::hashInit(), val);
  }
};

TEST_F(RowIndexTableTest, JoinIndexKeepsWildRowsOutOfBuckets) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.insertConcrete({v(2), Value::cvar(u_)});
  t.insertConcrete({v(3), v(10)});
  const JoinIndex& idx = t.ensureJoinIndex({1});
  EXPECT_EQ(rowsOf(idx.probe(hashOf(v(10)))), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(idx.wildRows(), (std::vector<size_t>{1}));
  EXPECT_EQ(idx.bucketCount(), 1u);
}

TEST_F(RowIndexTableTest, WatermarkExtensionAppendsInOrder) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.ensureJoinIndex({1});
  t.insertConcrete({v(2), Value::cvar(u_)});
  t.insertConcrete({v(3), v(10)});
  const JoinIndex* stale = t.findJoinIndex({1});
  EXPECT_EQ(rowsOf(stale->probe(hashOf(v(10)))), (std::vector<size_t>{0}));
  const JoinIndex& idx = t.ensureJoinIndex({1});
  EXPECT_EQ(idx.builtUpTo(), 3u);
  EXPECT_EQ(rowsOf(idx.probe(hashOf(v(10)))), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(idx.wildRows(), (std::vector<size_t>{1}));
}

TEST_F(RowIndexTableTest, ProbesForDifferentHashesDoNotAlias) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.insertConcrete({v(2), v(20)});
  t.insertConcrete({v(3), v(10)});
  const JoinIndex& idx = t.ensureJoinIndex({1});
  RowIndex::Bucket b10 = idx.probe(hashOf(v(10)));
  RowIndex::Bucket b20 = idx.probe(hashOf(v(20)));
  EXPECT_EQ(rowsOf(b10), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(rowsOf(b20), (std::vector<size_t>{1}));
}

TEST_F(RowIndexTableTest, DataIndexSurvivesPruneIf) {
  CTable t(schema());
  for (int i = 0; i < 8; ++i) t.append({v(i % 4), v(0)}, smt::Formula());
  // Drop every row with a = 1; the data-part index must still find the
  // survivors at their new positions, duplicates included.
  EXPECT_EQ(t.pruneIf([&](const Row& r) { return r.vals[0] == v(1); }), 2u);
  EXPECT_EQ(t.rowsWithData({v(0), v(0)}), (std::vector<size_t>{0, 3}));
  EXPECT_EQ(t.rowsWithData({v(3), v(0)}), (std::vector<size_t>{2, 5}));
  EXPECT_TRUE(t.rowsWithData({v(1), v(0)}).empty());
  EXPECT_TRUE(t.conditionOf({v(1), v(0)}).isFalse());
  // Appends after the remap extend the same buckets.
  t.append({v(0), v(0)}, smt::Formula());
  EXPECT_EQ(t.rowsWithData({v(0), v(0)}), (std::vector<size_t>{0, 3, 6}));
}

}  // namespace
}  // namespace faure::rel
