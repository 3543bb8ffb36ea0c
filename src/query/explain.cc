#include "query/explain.h"

#include <cstdio>
#include <sstream>

namespace stix::query {

const char* ExplainVerbosityName(ExplainVerbosity v) {
  switch (v) {
    case ExplainVerbosity::kQueryPlanner:
      return "queryPlanner";
    case ExplainVerbosity::kExecStats:
      return "executionStats";
    case ExplainVerbosity::kAllPlansExecution:
      return "allPlansExecution";
  }
  return "unknown";
}

uint64_t ExplainNode::TotalKeysExamined() const {
  uint64_t total = keys_examined;
  for (const ExplainNode& child : children) total += child.TotalKeysExamined();
  return total;
}

uint64_t ExplainNode::TotalDocsExamined() const {
  uint64_t total = docs_examined;
  for (const ExplainNode& child : children) total += child.TotalDocsExamined();
  return total;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ExplainNode::ToJson(ExplainVerbosity v) const {
  std::ostringstream out;
  out << "{\"stage\": \"" << JsonEscape(stage) << "\"";
  if (!index_name.empty()) {
    out << ", \"indexName\": \"" << JsonEscape(index_name) << "\"";
  }
  if (!key_pattern.empty()) {
    out << ", \"keyPattern\": \"" << JsonEscape(key_pattern) << "\"";
  }
  if (!bounds.empty()) {
    out << ", \"indexBounds\": \"" << JsonEscape(bounds) << "\"";
  }
  if (!filter.empty()) {
    out << ", \"filter\": \"" << JsonEscape(filter) << "\"";
  }
  if (v != ExplainVerbosity::kQueryPlanner) {
    out << ", \"works\": " << works << ", \"advanced\": " << advanced
        << ", \"keysExamined\": " << keys_examined
        << ", \"docsExamined\": " << docs_examined;
    if (stage == "BUCKET_UNPACK") {
      out << ", \"bucketsPruned\": " << buckets_pruned
          << ", \"pointsScanned\": " << points_scanned
          << ", \"pointsUnpacked\": " << points_unpacked;
    }
    if (est_keys >= 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", est_keys);
      out << ", \"estimatedKeysExamined\": " << buf;
    }
    if (est_docs >= 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", est_docs);
      out << ", \"estimatedDocsExamined\": " << buf;
    }
    if (time_millis >= 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", time_millis);
      out << ", \"executionTimeMillisEstimate\": " << buf;
    }
  }
  if (!children.empty()) {
    out << ", \"inputStages\": [";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out << ", ";
      out << children[i].ToJson(v);
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace stix::query
