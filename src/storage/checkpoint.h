#ifndef STIX_STORAGE_CHECKPOINT_H_
#define STIX_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/btree.h"
#include "storage/collection.h"

namespace stix::storage {

/// What one shard hands the checkpoint writer per index: the catalog owns
/// the structures, the checkpoint only reads them.
struct IndexDump {
  std::string name;
  bool multikey = false;
  const BTree* btree = nullptr;
};

/// One persisted index, decoded: (KeyString, RecordId) entries in tree
/// order, ready to bulk-insert into a freshly declared index.
struct CheckpointIndexImage {
  std::string name;
  bool multikey = false;
  std::vector<std::pair<std::string, RecordId>> entries;
};

/// A fully decoded checkpoint: the record store image (RecordIds preserved,
/// tombstoned slots left addressable) plus every index image. Recovery
/// installs it, then replays the WAL from `lsn`.
struct CheckpointImage {
  uint64_t lsn = 0;
  RecordId max_record_id = 0;
  Collection collection;
  std::vector<CheckpointIndexImage> indexes;
};

/// Writes `dir`/checkpoint-<lsn>.ckpt atomically: the image streams into a
/// `.tmp` file first and only a complete image is renamed into place, so a
/// crash mid-checkpoint (the checkpointMidWrite fail point) leaves the
/// previous checkpoint untouched and at worst a stray `.tmp`.
///
/// Format (little-endian): magic "STIXCKP1" | u32 version | u64 lsn |
/// u64 max_record_id | u64 num_docs | doc blocks | u32 num_indexes |
/// per index: u32 name_len, name, u8 multikey, u64 num_entries,
/// entry blocks. Blocks are LZ-compressed with a CRC32 frame:
/// u32 raw_len | u32 comp_len | u32 crc32(comp) | comp bytes,
/// raw_len == 0 terminating the stream. Doc blocks decompress to repeated
/// (u64 rid | u32 len | BSON); entry blocks to repeated
/// (u32 key_len | key | u64 rid).
Status WriteCheckpoint(const Collection& collection,
                       const std::vector<IndexDump>& indexes, uint64_t lsn,
                       const std::string& dir);

/// Decodes a checkpoint file; Corruption on any checksum/length/count
/// violation (recovery then falls back to the next older checkpoint only
/// when the WAL covers the gap; see Shard::Recover).
Result<CheckpointImage> LoadCheckpoint(const std::string& path);

/// A checkpoint file recovery may try.
struct CheckpointRef {
  uint64_t lsn = 0;
  std::string path;
};

/// Checkpoint files directly in `dir`, newest (highest LSN) first.
/// `.tmp` leftovers and unrelated files are ignored.
std::vector<CheckpointRef> ListCheckpoints(const std::string& dir);

std::string CheckpointPath(const std::string& dir, uint64_t lsn);

/// Deletes checkpoints with LSN < `keep_lsn` and stray `.tmp` files —
/// called after a new checkpoint is durably in place.
void RemoveStaleCheckpoints(const std::string& dir, uint64_t keep_lsn);

}  // namespace stix::storage

#endif  // STIX_STORAGE_CHECKPOINT_H_
