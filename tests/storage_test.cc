#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/btree.h"
#include "storage/record_store.h"

namespace stix::storage {
namespace {

bson::Document MakeDoc(int i) {
  return bson::DocBuilder()
      .Field("i", i)
      .Field("name", "doc" + std::to_string(i))
      .Build();
}

// ---------- RecordStore ----------

TEST(RecordStoreTest, InsertGetRemove) {
  RecordStore rs;
  const RecordId a = rs.Insert(MakeDoc(1));
  const RecordId b = rs.Insert(MakeDoc(2));
  EXPECT_NE(a, kInvalidRecordId);
  EXPECT_NE(a, b);
  ASSERT_NE(rs.Get(a), nullptr);
  EXPECT_EQ(rs.Get(a)->Get("i")->AsInt32(), 1);
  EXPECT_TRUE(rs.Remove(a));
  EXPECT_EQ(rs.Get(a), nullptr);
  EXPECT_FALSE(rs.Remove(a));
  EXPECT_EQ(rs.num_records(), 1u);
}

TEST(RecordStoreTest, GetInvalidIds) {
  RecordStore rs;
  EXPECT_EQ(rs.Get(kInvalidRecordId), nullptr);
  EXPECT_EQ(rs.Get(999), nullptr);
}

TEST(RecordStoreTest, SizeAccountingFollowsInsertRemove) {
  RecordStore rs;
  const uint64_t empty = rs.logical_size_bytes();
  EXPECT_EQ(empty, 0u);
  bson::Document doc = MakeDoc(7);
  const size_t doc_size = doc.ApproxBsonSize();
  const RecordId id = rs.Insert(std::move(doc));
  EXPECT_EQ(rs.logical_size_bytes(), doc_size);
  rs.Remove(id);
  EXPECT_EQ(rs.logical_size_bytes(), 0u);
}

TEST(RecordStoreTest, ForEachVisitsLiveInIdOrder) {
  RecordStore rs;
  std::vector<RecordId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(rs.Insert(MakeDoc(i)));
  rs.Remove(ids[3]);
  rs.Remove(ids[7]);
  std::vector<RecordId> seen;
  rs.ForEach([&](RecordId id, const bson::Document&) { seen.push_back(id); });
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::count(seen.begin(), seen.end(), ids[3]), 0);
}

// ---------- BTree ----------

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.num_entries(), 0u);
  EXPECT_FALSE(tree.First().Valid());
  EXPECT_FALSE(tree.SeekGE("anything").Valid());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, InsertAndScanInOrder) {
  BTree tree;
  Rng rng(2);
  std::vector<int> order(1000);
  for (int i = 0; i < 1000; ++i) order[i] = i;
  for (int i = 999; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  for (int i : order) tree.Insert(Key(i), static_cast<RecordId>(i + 1));
  EXPECT_EQ(tree.num_entries(), 1000u);
  EXPECT_TRUE(tree.CheckInvariants());

  int expected = 0;
  for (BTree::Cursor c = tree.First(); c.Valid(); c.Next()) {
    EXPECT_EQ(c.key(), Key(expected));
    EXPECT_EQ(c.rid(), static_cast<RecordId>(expected + 1));
    ++expected;
  }
  EXPECT_EQ(expected, 1000);
  EXPECT_GT(tree.height(), 1);
}

TEST(BTreeTest, SeekGEFindsFirstNotLess) {
  BTree tree;
  for (int i = 0; i < 100; i += 2) tree.Insert(Key(i), 1);
  BTree::Cursor c = tree.SeekGE(Key(31));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(32));
  c = tree.SeekGE(Key(32));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(32));
  c = tree.SeekGE(Key(99));
  EXPECT_FALSE(c.Valid());
}

TEST(BTreeTest, DuplicateKeysOrderedByRid) {
  BTree tree;
  tree.Insert("same", 30);
  tree.Insert("same", 10);
  tree.Insert("same", 20);
  std::vector<RecordId> rids;
  for (BTree::Cursor c = tree.SeekGE("same"); c.Valid(); c.Next()) {
    rids.push_back(c.rid());
  }
  EXPECT_EQ(rids, (std::vector<RecordId>{10, 20, 30}));
}

TEST(BTreeTest, RemoveSpecificEntry) {
  BTree tree;
  tree.Insert("a", 1);
  tree.Insert("a", 2);
  tree.Insert("b", 3);
  EXPECT_TRUE(tree.Remove("a", 2));
  EXPECT_FALSE(tree.Remove("a", 2));
  EXPECT_FALSE(tree.Remove("zzz", 9));
  EXPECT_EQ(tree.num_entries(), 2u);
  BTree::Cursor c = tree.First();
  EXPECT_EQ(c.rid(), 1u);
  c.Next();
  EXPECT_EQ(c.rid(), 3u);
}

TEST(BTreeTest, MatchesReferenceUnderRandomOps) {
  BTree tree;
  std::multimap<std::string, RecordId> reference;
  Rng rng(14);
  for (int op = 0; op < 20000; ++op) {
    const int key_id = static_cast<int>(rng.NextBounded(500));
    const std::string key = Key(key_id);
    if (rng.NextBool(0.7)) {
      const RecordId rid = rng.NextBounded(1000) + 1;
      // One document produces one entry per index, so a live (key, rid)
      // pair is unique; skip collisions the way real use never creates.
      bool exists = false;
      auto range = reference.equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        exists |= it->second == rid;
      }
      if (!exists) {
        tree.Insert(key, rid);
        reference.emplace(key, rid);
      }
    } else if (!reference.empty()) {
      // Remove a (key, rid) that exists for this key, if any.
      auto range = reference.equal_range(key);
      if (range.first != range.second) {
        EXPECT_TRUE(tree.Remove(key, range.first->second));
        reference.erase(range.first);
      } else {
        EXPECT_FALSE(tree.Remove(key, 12345));
      }
    }
  }
  EXPECT_EQ(tree.num_entries(), reference.size());
  EXPECT_TRUE(tree.CheckInvariants());

  // Full scans agree (multimap preserves insertion order within equal keys,
  // so compare as sorted multisets of (key, rid)).
  std::vector<std::pair<std::string, RecordId>> from_tree, from_ref;
  for (BTree::Cursor c = tree.First(); c.Valid(); c.Next()) {
    from_tree.emplace_back(c.key(), c.rid());
  }
  for (const auto& [k, r] : reference) from_ref.emplace_back(k, r);
  std::sort(from_ref.begin(), from_ref.end());
  EXPECT_EQ(from_tree, from_ref);
}

TEST(BTreeTest, RangeScanSeesExactWindow) {
  BTree tree;
  for (int i = 0; i < 1000; ++i) tree.Insert(Key(i), static_cast<RecordId>(i));
  int count = 0;
  for (BTree::Cursor c = tree.SeekGE(Key(100));
       c.Valid() && c.key() < Key(200); c.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(BTreeTest, PrefixCompressionShrinksSharedPrefixKeys) {
  BTree shared, random;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    shared.Insert("common/long/prefix/" + Key(i), 1);
    std::string rand_key;
    for (int j = 0; j < 28; ++j) {
      rand_key.push_back(static_cast<char>('a' + rng.NextBounded(26)));
    }
    random.Insert(rand_key, 1);
  }
  // Same key lengths (28 bytes), very different compressed sizes.
  EXPECT_LT(shared.SizeWithPrefixCompression(),
            random.SizeWithPrefixCompression() / 2);
  EXPECT_LT(shared.SizeWithPrefixCompression(), shared.SizeUncompressed());
}

TEST(BTreeTest, SizeAccountingCountsAllEntries) {
  BTree tree;
  EXPECT_EQ(tree.SizeWithPrefixCompression(), 0u);  // nothing to store
  tree.Insert("abc", 1);
  const uint64_t one = tree.SizeWithPrefixCompression();
  tree.Insert("abd", 2);
  EXPECT_GT(tree.SizeWithPrefixCompression(), one);
}

TEST(BTreeTest, LazyDeletionKeepsScansCorrect) {
  BTree tree;
  for (int i = 0; i < 500; ++i) tree.Insert(Key(i), 1);
  // Hollow out a whole region so some leaves become empty.
  for (int i = 100; i < 400; ++i) EXPECT_TRUE(tree.Remove(Key(i), 1));
  std::vector<std::string> keys;
  for (BTree::Cursor c = tree.First(); c.Valid(); c.Next()) {
    keys.push_back(c.key());
  }
  ASSERT_EQ(keys.size(), 200u);
  EXPECT_EQ(keys[99], Key(99));
  EXPECT_EQ(keys[100], Key(400));
  // SeekGE into the hollow region lands beyond it.
  BTree::Cursor c = tree.SeekGE(Key(250));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(400));
}

TEST(BTreeTest, HeavyDuplicateStressAgainstReference) {
  // Very few distinct keys, many rids: leaf splits land inside duplicate
  // runs, which the rid-carrying separators must route correctly.
  BTree tree;
  std::multimap<std::string, RecordId> reference;
  Rng rng(42);
  RecordId next_rid = 1;
  for (int op = 0; op < 30000; ++op) {
    const std::string key = Key(static_cast<int>(rng.NextBounded(3)));
    if (rng.NextBool(0.8)) {
      tree.Insert(key, next_rid);
      reference.emplace(key, next_rid);
      ++next_rid;
    } else {
      auto range = reference.equal_range(key);
      if (range.first != range.second) {
        EXPECT_TRUE(tree.Remove(key, range.first->second));
        reference.erase(range.first);
      }
    }
  }
  EXPECT_EQ(tree.num_entries(), reference.size());
  EXPECT_TRUE(tree.CheckInvariants());

  // Every remaining entry must be findable via a key-targeted scan.
  for (int k = 0; k < 3; ++k) {
    const std::string key = Key(k);
    size_t scanned = 0;
    for (BTree::Cursor c = tree.SeekGE(key);
         c.Valid() && c.key() == key; c.Next()) {
      ++scanned;
    }
    EXPECT_EQ(scanned, reference.count(key)) << "key " << k;
  }
}

TEST(BTreeTest, SeekLandsOnFirstDuplicate) {
  BTree tree;
  for (RecordId rid = 1; rid <= 500; ++rid) tree.Insert("dup", rid);
  tree.Insert("above", 1);  // sorts before "dup"
  BTree::Cursor c = tree.SeekGE("dup");
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), "dup");
  EXPECT_EQ(c.rid(), 1u);  // the smallest rid, not a mid-run entry
}

// ---------- Collection stats ----------

TEST(CollectionTest, StatsCountAndCompress) {
  RecordStore records;
  for (int i = 0; i < 2000; ++i) {
    records.Insert(bson::DocBuilder()
                       .Field("i", i)
                       .Field("payload",
                              "sensor=ok;rpm=1200;din=1;"
                              "sensor=ok;rpm=1200;din=1;")
                       .Build());
  }
  const CollectionStats stats = ComputeStats(records);
  EXPECT_EQ(stats.num_documents, 2000u);
  EXPECT_GT(stats.logical_bytes, 0u);
  // Repetitive payloads must compress.
  EXPECT_LT(stats.compressed_bytes, stats.logical_bytes);
  EXPECT_GT(stats.compressed_bytes, 0u);
}

TEST(CollectionTest, EmptyCollectionStats) {
  const CollectionStats stats = ComputeStats(RecordStore());
  EXPECT_EQ(stats.num_documents, 0u);
  EXPECT_EQ(stats.logical_bytes, 0u);
  EXPECT_EQ(stats.compressed_bytes, 0u);
}

}  // namespace
}  // namespace stix::storage
