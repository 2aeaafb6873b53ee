// Simulation context: clock + scheduler + root RNG.
//
// Components hold a Simulator& and use `at`/`after` to schedule work. The
// simulator is the composition root of a run; it owns nothing but time.
#pragma once

#include <atomic>
#include <cstdint>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace pi2::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Root RNG; components should `split()` their own streams from it.
  Rng& rng() { return rng_; }

  /// Schedules `fn` at absolute time `at`. Scheduling in the past is almost
  /// always a component bug; the time is clamped to now and counted in
  /// clamped_events() so harnesses can assert it never happens.
  EventHandle at(Time when, UniqueFunction fn) {
    return scheduler_.schedule_at(clamp(when), std::move(fn));
  }

  /// Schedules `fn` after a relative delay. A negative delay targets the
  /// past and is clamped to now by `at()`, which also counts it in
  /// clamped_events() — negative delays are component bugs exactly like
  /// absolute times in the past, and harnesses assert the counter stays 0.
  EventHandle after(Duration delay, UniqueFunction fn) {
    return at(now_ + delay, std::move(fn));
  }

  /// Reserves the key an `after(delay, ...)` call made now would get,
  /// without scheduling anything; `at(key, fn)` later schedules under it.
  /// Clamps and counts a negative delay like `after()`.
  EventKey reserve(Duration delay) {
    return EventKey{clamp(now_ + delay), scheduler_.reserve_seq()};
  }

  /// Schedules `fn` under a key from `reserve()`. The key's time must not
  /// be in the past (clamped and counted like `at(Time, ...)`).
  EventHandle at(EventKey key, UniqueFunction fn) {
    key.at = clamp(key.at);
    return scheduler_.schedule(key, std::move(fn));
  }

  /// Re-arms a pending timer to fire `delay` from now, as if it had been
  /// cancelled and scheduled afresh with `after(delay, ...)`. Returns false
  /// — the timer is then cancelled or was not pending — when the new time
  /// is earlier than the armed one; the caller schedules afresh. A later
  /// deadline costs no heap work (Scheduler::defer).
  bool defer(const EventHandle& timer, Duration delay) {
    return scheduler_.defer(timer, clamp(now_ + delay));
  }

  /// Runs events until the event queue is empty or `until` is reached.
  /// The clock ends at exactly `until` if the queue outlives it.
  void run_until(Time until);

  /// Runs until the event queue is exhausted.
  void run();

  /// Optional external stop flag (graceful shutdown). The run loops poll it
  /// every kStopPollInterval events and return early — at an event boundary,
  /// with the clock at the last executed event — once it reads true.
  /// Borrowed; must outlive the run. nullptr disables polling.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }

  /// True when the last run()/run_until() returned early because the stop
  /// flag was set (the queue may still hold events).
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const { return scheduler_.executed(); }

  /// Number of `at()` calls whose target time was in the past and got
  /// clamped to now. Healthy runs keep this at 0.
  [[nodiscard]] std::uint64_t clamped_events() const { return clamped_; }

  /// The underlying scheduler (observability: heap occupancy, compactions).
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }

 private:
  /// Stop-flag polling cadence in events: frequent enough that a shutdown
  /// lands within microseconds of wall time, cheap enough (one relaxed-ish
  /// load per 1024 events) to be invisible in the scheduler hot path.
  static constexpr std::uint64_t kStopPollInterval = 1024;

  [[nodiscard]] bool should_stop();

  /// Maps a time in the past to now, counting it in clamped_events().
  Time clamp(Time when) {
    if (when < now_) {
      ++clamped_;
      return now_;
    }
    return when;
  }

  Time now_ = kTimeZero;
  Scheduler scheduler_;
  Rng rng_;
  std::uint64_t clamped_ = 0;
  const std::atomic<bool>* stop_ = nullptr;
  bool stopped_ = false;
};

}  // namespace pi2::sim
