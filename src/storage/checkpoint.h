#ifndef STIX_STORAGE_CHECKPOINT_H_
#define STIX_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/record_store.h"

namespace stix::storage {

/// A fully decoded checkpoint: the record store image (RecordIds preserved,
/// tombstoned slots left addressable). Recovery restores and indexes every
/// record, then replays the WAL from `lsn`.
struct CheckpointImage {
  uint64_t lsn = 0;
  RecordStore records;
};

/// Writes `dir`/checkpoint-<lsn>.ckpt atomically: the image streams into a
/// `.tmp` file first and only a complete image is renamed into place, so a
/// crash mid-checkpoint (the checkpointMidWrite fail point) leaves the
/// previous checkpoint untouched and at worst a stray `.tmp`.
///
/// Format (little-endian): magic "STIXCKP1" | u32 version (2) | u64 lsn |
/// u64 max_record_id | u64 num_docs | doc blocks, and nothing after them.
/// Blocks are LZ-compressed with a CRC32 frame:
/// u32 raw_len | u32 comp_len | u32 crc32(comp) | comp bytes,
/// raw_len == 0 terminating the stream. Doc blocks decompress to repeated
/// (u64 rid | u32 len | BSON). Indexes are not stored: they are derived
/// from the documents. Version 1 images, which carried index entries after
/// the documents, are rejected.
Status WriteCheckpoint(const RecordStore& records, uint64_t lsn,
                       const std::string& dir);

/// Decodes a checkpoint file; Corruption on any checksum/length/count
/// violation, an unknown version, or bytes past the document blocks
/// (recovery then falls back to the next older checkpoint only
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
