// Test helper: drains a query::PlanExecutor the way a shard cursor does,
// one Next() pull at a time.

#ifndef STIX_TESTS_PLAN_DRAIN_H_
#define STIX_TESTS_PLAN_DRAIN_H_

#include <vector>

#include "query/executor.h"

namespace stix::testing {

/// The "id" (int32) field of every result, in stream order. The executor's
/// accessors (CurrentStats(), winning_index(), planned_by(), ...) are final
/// once this returns.
inline std::vector<int> DrainIds(query::PlanExecutor* exec) {
  std::vector<int> ids;
  storage::RecordId rid;
  const bson::Document* doc = nullptr;
  while (exec->Next(&rid, &doc)) ids.push_back(doc->Get("id")->AsInt32());
  return ids;
}

}  // namespace stix::testing

#endif  // STIX_TESTS_PLAN_DRAIN_H_
