#ifndef STIX_INDEX_INDEX_H_
#define STIX_INDEX_INDEX_H_

#include <memory>

#include "index/index_descriptor.h"
#include "index/key_generator.h"
#include "storage/btree.h"

namespace stix::index {

/// A live index: descriptor + key generator + the backing B-tree.
class Index {
 public:
  explicit Index(IndexDescriptor descriptor)
      : descriptor_(std::move(descriptor)), keygen_(descriptor_) {}

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const IndexDescriptor& descriptor() const { return descriptor_; }
  const KeyGenerator& keygen() const { return keygen_; }
  const storage::BTree& btree() const { return btree_; }

  /// True once any stored document produced more than one key (array value
  /// or LineString geometry) — scans must then deduplicate RecordIds, as
  /// MongoDB's multikey indexes do.
  bool is_multikey() const { return multikey_; }

  Status InsertDocument(const bson::Document& doc, storage::RecordId rid) {
    Result<std::vector<std::string>> keys = keygen_.MakeKeys(doc);
    if (!keys.ok()) return keys.status();
    if (keys->size() > 1) multikey_ = true;
    for (const std::string& key : *keys) {
      btree_.Insert(key, rid);
    }
    return Status::OK();
  }

  Status RemoveDocument(const bson::Document& doc, storage::RecordId rid) {
    Result<std::vector<std::string>> keys = keygen_.MakeKeys(doc);
    if (!keys.ok()) return keys.status();
    for (const std::string& key : *keys) {
      if (!btree_.Remove(key, rid)) {
        return Status::NotFound("index entry missing on remove");
      }
    }
    return Status::OK();
  }

 private:
  IndexDescriptor descriptor_;
  KeyGenerator keygen_;
  storage::BTree btree_;
  bool multikey_ = false;
};

}  // namespace stix::index

#endif  // STIX_INDEX_INDEX_H_
