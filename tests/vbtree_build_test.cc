#include <gtest/gtest.h>

#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTestDb;
using testutil::MakeTuple;
using testutil::MakeWideSchema;

TEST(VBTreeBuildTest, EmptyTreeHasIdentityDigest) {
  auto db = MakeTestDb(0);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->tree->size(), 0u);
  EXPECT_EQ(db->tree->height(), 1);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  // Root signature recovers to the identity combination.
  auto d = db->recoverer->Recover(db->tree->root_signature());
  ASSERT_TRUE(d.ok());
  CommutativeHash g;
  EXPECT_EQ(*d, g.Identity());
}

TEST(VBTreeBuildTest, BulkLoadDigestsConsistent) {
  auto db = MakeTestDb(1000, /*ncols=*/10, /*max_fanout=*/16);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->tree->size(), 1000u);
  EXPECT_GE(db->tree->height(), 3);
  EXPECT_TRUE(db->tree->CheckStructure().ok());
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
}

TEST(VBTreeBuildTest, RootSignatureRecoversRootDigest) {
  auto db = MakeTestDb(200);
  ASSERT_NE(db, nullptr);
  auto d = db->recoverer->Recover(db->tree->root_signature());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, db->tree->root_digest());
}

TEST(VBTreeBuildTest, BulkLoadRejectsUnsortedInput) {
  auto db = MakeTestDb(0);
  ASSERT_NE(db, nullptr);
  Rng rng(1);
  Tuple a = MakeTuple(db->schema, 5, &rng);
  Tuple b = MakeTuple(db->schema, 3, &rng);
  std::vector<std::pair<Tuple, Rid>> rows;
  rows.emplace_back(a, Rid{0, 0});
  rows.emplace_back(b, Rid{0, 1});
  EXPECT_EQ(db->tree->BulkLoad(rows).code(), StatusCode::kInvalidArgument);
}

TEST(VBTreeBuildTest, BulkLoadRejectsNonEmptyTree) {
  auto db = MakeTestDb(10);
  ASSERT_NE(db, nullptr);
  std::vector<std::pair<Tuple, Rid>> rows;
  EXPECT_EQ(db->tree->BulkLoad(rows).code(), StatusCode::kInvalidArgument);
}

TEST(VBTreeBuildTest, AllKeysInOrder) {
  auto db = MakeTestDb(500, 10, 8, /*stride=*/3);
  ASSERT_NE(db, nullptr);
  std::vector<int64_t> keys = db->tree->AllKeys();
  ASSERT_EQ(keys.size(), 500u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(i) * 3);
  }
}

TEST(VBTreeBuildTest, KeysInRange) {
  auto db = MakeTestDb(100);
  ASSERT_NE(db, nullptr);
  auto keys = db->tree->KeysInRange(10, 19);
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), 10);
  EXPECT_EQ(keys.back(), 19);
  EXPECT_TRUE(db->tree->KeysInRange(200, 300).empty());
}

TEST(VBTreeBuildTest, DifferentTablesDifferentDigests) {
  // The db/table names are bound into attribute digests (formula (1)):
  // identical data in differently-named tables must not share digests.
  Schema schema = MakeWideSchema(3);
  SimSigner signer(7);
  VBTreeOptions opts;
  Rng rng_a(42), rng_b(42);

  DigestSchema ds_a("db", "alpha", schema);
  DigestSchema ds_b("db", "beta", schema);
  VBTree tree_a(std::move(ds_a), opts, &signer);
  VBTree tree_b(std::move(ds_b), opts, &signer);

  std::vector<std::pair<Tuple, Rid>> rows_a, rows_b;
  for (int i = 0; i < 10; ++i) {
    rows_a.emplace_back(MakeTuple(schema, i, &rng_a), Rid{0, (uint16_t)i});
    rows_b.emplace_back(MakeTuple(schema, i, &rng_b), Rid{0, (uint16_t)i});
  }
  ASSERT_EQ(rows_a[0].first, rows_b[0].first);  // identical data
  ASSERT_TRUE(tree_a.BulkLoad(rows_a).ok());
  ASSERT_TRUE(tree_b.BulkLoad(rows_b).ok());
  EXPECT_NE(tree_a.root_digest(), tree_b.root_digest());
}

TEST(VBTreeBuildTest, SerializeDeserializeRoundTrip) {
  auto db = MakeTestDb(300, 10, 8);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  ByteReader r(Slice(w.buffer()));
  auto replica = VBTree::Deserialize(&r);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ((*replica)->size(), 300u);
  EXPECT_EQ((*replica)->height(), db->tree->height());
  EXPECT_EQ((*replica)->root_digest(), db->tree->root_digest());
  EXPECT_TRUE((*replica)->CheckDigestConsistency().ok());
  EXPECT_TRUE((*replica)->CheckStructure().ok());
  EXPECT_EQ((*replica)->AllKeys(), db->tree->AllKeys());
}

TEST(VBTreeBuildTest, DeserializedReplicaCannotSign) {
  auto db = MakeTestDb(10);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  ByteReader r(Slice(w.buffer()));
  auto replica = VBTree::Deserialize(&r);  // no signer
  ASSERT_TRUE(replica.ok());
  Rng rng(1);
  Tuple t = MakeTuple(db->schema, 1000, &rng);
  EXPECT_EQ((*replica)->Insert(t, Rid{0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*replica)->DeleteRange(0, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(VBTreeBuildTest, CorruptSerializationRejected) {
  auto db = MakeTestDb(50);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  // Bad magic.
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    ByteReader r((Slice(bad)));
    EXPECT_FALSE(VBTree::Deserialize(&r).ok());
  }
  // Truncated stream.
  {
    ByteReader r(Slice(bytes.data(), bytes.size() / 2));
    EXPECT_FALSE(VBTree::Deserialize(&r).ok());
  }
}

TEST(VBTreeBuildTest, NodeCountMatchesPackedExpectation) {
  auto db = MakeTestDb(1000, 10, 10);
  ASSERT_NE(db, nullptr);
  // 1000 tuples / 10 per leaf = 100 leaves; 10 internals; 1 root.
  EXPECT_EQ(db->tree->node_count(), 111u);
  EXPECT_EQ(db->tree->height(), 3);
}

/// Height of packed trees tracks the cost-model formula across sizes.
class PackedHeightSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedHeightSweep, MatchesFormula) {
  size_t n = GetParam();
  int fanout = 8;
  auto db = MakeTestDb(n, /*ncols=*/3, fanout);
  ASSERT_NE(db, nullptr);
  int formula = BTreeConfig::PackedHeight(n, fanout);
  EXPECT_EQ(db->tree->height(), formula) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedHeightSweep,
                         ::testing::Values(1, 8, 9, 64, 65, 512, 513, 2000));

// Digests are protocol: a central server and a client built from
// different revisions must agree on every bit. The constants below were
// captured from the EVP-based implementation of formula (1); any faster
// hashing path must reproduce them exactly.
struct GoldenAttr {
  HashAlgorithm algo;
  int64_t key;
  size_t col;
  Value value;
  const char* hex;
};

std::string LongString(size_t n) {
  std::string s(n, ' ');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 26);
  return s;
}

TEST(DigestGoldenTest, AttributeDigestsAreBitStable) {
  const Schema schema = MakeWideSchema(10);
  const std::vector<GoldenAttr> cases = {
      {HashAlgorithm::kSha256, 0, 0, Value::Int(0),
       "4908738d9c697f8720397ff366734440"},
      {HashAlgorithm::kSha256, 42, 0, Value::Int(42),
       "81e91cdcc4ea5599e3409b963cd1e5be"},
      {HashAlgorithm::kSha256, 42, 3, Value::Str("hello edge"),
       "828cf885a06b656c4d823658ed621cf8"},
      {HashAlgorithm::kSha256, -7, 9, Value::Str(""),
       "e08544f0ec10907c4ce0049a334a8ef8"},
      {HashAlgorithm::kSha256, 1 << 20, 5, Value::Double(3.25),
       "2e4d2ad04f194e4bfbe8543391541c4c"},
      // 127/128 bytes straddle the one-byte varint length; 300 and 5000
      // exceed any small fixed preimage buffer.
      {HashAlgorithm::kSha256, 9, 1, Value::Str(LongString(127)),
       "ea80d4640e87476a65baea59d9568608"},
      {HashAlgorithm::kSha256, 9, 2, Value::Str(LongString(128)),
       "923685e1ab0bccc80d439b43016313f2"},
      {HashAlgorithm::kSha256, 9, 4, Value::Str(LongString(300)),
       "b085920d8c24226e2c17c540a7320de7"},
      {HashAlgorithm::kSha256, 9, 6, Value::Str(LongString(5000)),
       "f84a6e22987f7917fe1af3007a5cce7e"},
      {HashAlgorithm::kSha1, 42, 0, Value::Int(42),
       "137a58f667be97d5526decb51eaec402"},
      {HashAlgorithm::kSha1, 42, 3, Value::Str("hello edge"),
       "c1c97de0bfb34f8790850fe3cce23e70"},
      {HashAlgorithm::kSha1, 9, 4, Value::Str(LongString(300)),
       "5ba8a748d8159ec60d129fae6938ab13"},
      {HashAlgorithm::kMd5, 42, 0, Value::Int(42),
       "3cef515cb61b114c1c9587a291e623cf"},
      {HashAlgorithm::kMd5, 42, 3, Value::Str("hello edge"),
       "2795f686e6c484aef60daf97ccc5ab3d"},
      {HashAlgorithm::kMd5, 9, 4, Value::Str(LongString(300)),
       "2d61ca6c4b6626561fd1f6ee190ba323"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const GoldenAttr& c = cases[i];
    DigestSchema ds("paperdb", "orders", schema, c.algo);
    EXPECT_EQ(ds.AttributeDigest(c.key, c.col, c.value).ToHex(), c.hex)
        << "case " << i;
  }
}

TEST(DigestGoldenTest, SeededTableRootAndBindingAreBitStable) {
  // The paper's table shape: an INT64 key and nine 20-byte strings.
  auto db = MakeTestDb(1000, /*ncols=*/10, /*max_fanout=*/16, /*stride=*/1,
                       /*seed=*/42);
  ASSERT_NE(db, nullptr);
  const Digest root = db->tree->root_digest();
  EXPECT_EQ(root.ToHex(), "151a3e52f06ce2502e95872948c1a27e");
  Rng rng(42);
  const Tuple row = MakeTuple(db->schema, 5, &rng);
  EXPECT_EQ(db->tree->digest_schema().TupleDigest(row).ToHex(),
            "0100a43767e39e3c82103c3c41c019da");
  EXPECT_EQ(ShardBindingDigest(HashAlgorithm::kSha256, "testdb", "t#1", 0,
                               999, root)
                .ToHex(),
            "e686f5e631434cc358a64b44ed166497");
}

}  // namespace
}  // namespace vbtree
