#include "util/budget.h"

#include <chrono>
#include <cstdio>
#include <limits>

namespace autoce::util {

double SteadyClockSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

DeadlineBudget::DeadlineBudget(double budget_seconds, ClockFn clock)
    : budget_seconds_(budget_seconds),
      clock_(clock ? std::move(clock) : ClockFn(&SteadyClockSeconds)) {}

void DeadlineBudget::Arm() {
  armed_at_.store(clock_(), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

double DeadlineBudget::Elapsed() const {
  if (!armed_.load(std::memory_order_acquire)) return 0.0;
  double elapsed = clock_() - armed_at_.load(std::memory_order_relaxed);
  return elapsed < 0.0 ? 0.0 : elapsed;
}

double DeadlineBudget::Remaining() const {
  if (unlimited()) return std::numeric_limits<double>::infinity();
  double left = budget_seconds_ - Elapsed();
  return left < 0.0 ? 0.0 : left;
}

bool DeadlineBudget::Exhausted() const {
  return !unlimited() && Elapsed() >= budget_seconds_;
}

Status DeadlineBudget::Check(const char* what) const {
  if (!Exhausted()) return Status::OK();
  char msg[160];
  std::snprintf(msg, sizeof(msg),
                "%s: deadline budget of %.3fs exhausted (elapsed %.3fs)",
                what, budget_seconds_, Elapsed());
  return Status::DeadlineExceeded(msg);
}

}  // namespace autoce::util
