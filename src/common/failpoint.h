#ifndef STIX_COMMON_FAILPOINT_H_
#define STIX_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace stix {

/// A named fault-injection site, modeled on MongoDB's failpoint mechanism:
/// production code evaluates the point at interesting places (B+tree splits,
/// shard getMore, the router merge, the replan path, chunk migration) and
/// tests/fuzzers activate it by name to inject a delay or an error — or, for
/// sites like the replan path, to force a rarely-taken branch.
///
/// Evaluation is one relaxed atomic load while disabled, so instrumented hot
/// paths cost nothing in normal operation. Mode/counter updates are mutex-
/// guarded, making concurrent evaluation from client threads safe.
class FailPoint {
 public:
  /// Activation modes (MongoDB's failpoint grammar).
  enum class Mode {
    kOff,       ///< Never fires.
    kAlwaysOn,  ///< Fires on every evaluation until disabled.
    kTimes,     ///< Fires for the next `count` evaluations, then disables.
    kSkip,      ///< Skips the first `count` evaluations, then fires always.
  };

  /// One activation: a mode plus the action taken when the point fires.
  /// `delay_ms > 0` sleeps before returning; `error_code != kOk` makes the
  /// evaluation return that error (sites without a Status channel honor the
  /// delay and ignore the error action).
  struct Config {
    Mode mode = Mode::kAlwaysOn;
    uint64_t count = 0;
    double delay_ms = 0.0;
    StatusCode error_code = StatusCode::kOk;
    std::string error_message;
  };

  /// Constructs and registers the point under `name` (process lifetime;
  /// use the STIX_FAIL_POINT_DEFINE macro at namespace scope in the site's
  /// translation unit).
  explicit FailPoint(const char* name);

  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  const std::string& name() const { return name_; }

  /// Arms the point; resets the fire/entry counters.
  void Enable(Config config);

  /// Disarms the point (counters are preserved for inspection).
  void Disable();

  /// Fast check for instrumentation sites.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Evaluates the point. nullopt when disabled, skipped, or exhausted.
  /// When it fires: sleeps the configured delay, then returns the configured
  /// error action (an OK Status for delay-only activations).
  std::optional<Status> Evaluate();

  /// Evaluations that saw the point enabled (since the last Enable).
  uint64_t times_entered() const {
    return entered_.load(std::memory_order_relaxed);
  }

  /// Times the point actually fired (since the last Enable).
  uint64_t times_fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> entered_{0};
  std::atomic<uint64_t> fired_{0};
  mutable std::mutex mu_;
  Config config_;  // guarded by mu_
};

/// Process-wide name -> FailPoint directory. Sites self-register at static
/// initialization; tests and the fuzz driver look them up by name.
class FailPointRegistry {
 public:
  static FailPointRegistry& Instance();

  void Register(FailPoint* point);

  /// nullptr when no site carries that name.
  FailPoint* Find(const std::string& name) const;

  /// Registered site names, sorted (for --list style diagnostics).
  std::vector<std::string> Names() const;

  /// Disarms every registered point (test teardown hygiene).
  void DisableAll();

 private:
  FailPointRegistry() = default;
  mutable std::mutex mu_;
  std::vector<FailPoint*> points_;
};

/// Convenience for error-capable sites:
///   if (Status s = CheckFailPoint(myPoint); !s.ok()) return s;
/// Fires the point's delay as a side effect; returns OK when the point did
/// not fire or carries no error action.
inline Status CheckFailPoint(FailPoint& point) {
  if (!point.enabled()) return Status::OK();
  const std::optional<Status> fired = point.Evaluate();
  return fired.has_value() ? *fired : Status::OK();
}

/// Defines a registered fail point at namespace scope:
///   STIX_FAIL_POINT_DEFINE(btreeNodeSplit);
/// creates a FailPoint variable `btreeNodeSplit` registered as
/// "btreeNodeSplit".
#define STIX_FAIL_POINT_DEFINE(name) ::stix::FailPoint name(#name)

}  // namespace stix

#endif  // STIX_COMMON_FAILPOINT_H_
