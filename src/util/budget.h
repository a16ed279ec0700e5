#ifndef AUTOCE_UTIL_BUDGET_H_
#define AUTOCE_UTIL_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "util/status.h"

namespace autoce::util {

/// Monotonic time source in seconds. The default reads
/// `std::chrono::steady_clock`; tests and the soak harness inject a
/// simulated clock so budget decisions are a pure function of the
/// driving schedule rather than of host speed.
using ClockFn = std::function<double()>;

/// The process steady-clock in seconds (the default ClockFn).
double SteadyClockSeconds();

/// \brief A wall-clock budget with `Status`-typed exhaustion.
///
/// A DeadlineBudget is armed once (capturing the start instant from the
/// injected clock) and then consulted at well-defined checkpoints:
///
/// ```
/// DeadlineBudget budget(0.250);  // 250 ms
/// budget.Arm();
/// for (auto& unit : batch) {
///   AUTOCE_RETURN_NOT_OK(budget.Check("labeling"));  // or degrade
///   ...
/// }
/// ```
///
/// A budget of <= 0 seconds means "unlimited": `Check` always succeeds
/// and `Exhausted` is always false, so callers can thread one object
/// through unconditionally. The object is safe to share across threads
/// once armed; `Arm` itself must not race with readers.
class DeadlineBudget {
 public:
  /// \param budget_seconds Total allowance; <= 0 disables enforcement.
  /// \param clock Monotonic seconds source (steady clock when null).
  explicit DeadlineBudget(double budget_seconds, ClockFn clock = nullptr);

  /// (Re)starts the countdown at the clock's current instant.
  void Arm();

  /// Seconds since the last `Arm` (0 before the first `Arm`).
  double Elapsed() const;

  /// Seconds left before exhaustion; +inf when unlimited, clamped at 0.
  double Remaining() const;

  /// True once `Elapsed() >= budget` for a finite budget.
  bool Exhausted() const;

  /// OK while within budget; `DeadlineExceeded` naming `what` after.
  Status Check(const char* what) const;

  double budget_seconds() const { return budget_seconds_; }
  bool unlimited() const { return budget_seconds_ <= 0.0; }

 private:
  double budget_seconds_;
  ClockFn clock_;
  std::atomic<double> armed_at_{0.0};
  std::atomic<bool> armed_{false};
};

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_BUDGET_H_
