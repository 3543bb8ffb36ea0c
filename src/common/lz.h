#ifndef STIX_COMMON_LZ_H_
#define STIX_COMMON_LZ_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace stix {

/// A small snappy-style LZ77 byte compressor: greedy hash-table matching,
/// varint-tagged literal/copy ops. It exists so the storage engine can
/// account for on-disk block compression (WiredTiger's default) with a real
/// algorithm rather than a made-up ratio; the paper's Table 6 and Fig. 14
/// sizes depend on how well trajectory documents compress.
std::string LzCompress(std::string_view input);

/// Inverse of LzCompress. Fails with Corruption on malformed input.
Result<std::string> LzDecompress(std::string_view compressed);

/// LzDecompress into *out, reusing its capacity. An input that declares
/// more than max_size bytes fails with Corruption before *out is resized.
Status LzDecompressInto(std::string_view compressed, size_t max_size,
                        std::string* out);

}  // namespace stix

#endif  // STIX_COMMON_LZ_H_
