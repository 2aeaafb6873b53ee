#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <utility>
#include <vector>

namespace pi2::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), kTimeZero);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  Time seen{};
  s.at(Time{100}, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time{100});
  EXPECT_EQ(s.now(), Time{100});
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.at(Time{100}, [&] { ++count; });
  s.at(Time{200}, [&] { ++count; });
  s.run_until(Time{150});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), Time{150});
  s.run_until(Time{250});
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilInclusiveOfBoundaryEvents) {
  Simulator s;
  bool ran = false;
  s.at(Time{150}, [&] { ran = true; });
  s.run_until(Time{150});
  EXPECT_TRUE(ran);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  std::vector<std::int64_t> at;
  s.at(Time{50}, [&] {
    s.after(Duration{25}, [&] { at.push_back(s.now().count()); });
  });
  s.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{75}));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator s;
  s.at(Time{100}, [&] {
    // Scheduling in the past must execute "immediately" (at now), not warp
    // the clock backwards.
    s.at(Time{10}, [&] { EXPECT_EQ(s.now(), Time{100}); });
  });
  s.run();
  EXPECT_EQ(s.now(), Time{100});
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  s.at(Time{10}, [&] {
    s.after(Duration{-50}, [&] { EXPECT_EQ(s.now(), Time{10}); });
  });
  s.run();
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator s;
  s.run_until(Time{12345});
  EXPECT_EQ(s.now(), Time{12345});
}

TEST(Simulator, EventCountTracksExecution) {
  Simulator s;
  for (int i = 1; i <= 5; ++i) s.at(Time{i}, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, RngIsSeededFromConstructor) {
  Simulator a{5};
  Simulator b{5};
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  Simulator c{6};
  Simulator d{7};
  EXPECT_NE(c.rng().next_u64(), d.rng().next_u64());
}

TEST(Simulator, ClampedEventsCounterStartsAtZero) {
  Simulator s;
  s.at(Time{10}, [] {});
  s.after(Duration{5}, [] {});
  s.run();
  EXPECT_EQ(s.clamped_events(), 0u);
}

TEST(Simulator, ClampedEventsCountsPastTimeSchedules) {
  Simulator s;
  s.at(Time{100}, [&] {
    s.at(Time{10}, [] {});  // in the past: clamped and counted
    s.at(Time{100}, [] {}); // exactly now: not a clamp
  });
  s.run();
  EXPECT_EQ(s.clamped_events(), 1u);
}

TEST(Simulator, NegativeDelayAfterCountsAsClamp) {
  // after() routes through at(), so a negative delay is clamped to now AND
  // counted — a component computing nonsense delays can no longer hide.
  Simulator s;
  s.at(Time{10}, [&] { s.after(Duration{-50}, [] {}); });
  s.run();
  EXPECT_EQ(s.clamped_events(), 1u);
}

TEST(Simulator, ZeroDelayAfterIsNotAClamp) {
  Simulator s;
  s.at(Time{10}, [&] { s.after(Duration{0}, [] {}); });
  s.run();
  EXPECT_EQ(s.clamped_events(), 0u);
}

TEST(Simulator, PeriodicSelfReschedulingPattern) {
  Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    s.after(Duration{10}, tick);
  };
  s.after(Duration{10}, tick);
  s.run_until(Time{100});
  EXPECT_EQ(ticks, 10);
}

// --- The run loop: one heap inspection (Scheduler::peek) per event. -------

TEST(Simulator, DeferredTimerDueAfterUntilDoesNotFire) {
  // The timer's heap entry keeps its old key (100) while its true time is
  // 300, so at run_until(200) the stale entry is the heap top. The loop must
  // re-key it before comparing with `until`, not fire it at 100.
  Simulator s;
  bool fired = false;
  EventHandle timer = s.at(Time{100}, [&] { fired = true; });
  ASSERT_TRUE(s.defer(timer, Duration{300}));
  ASSERT_EQ(s.scheduler().heap_size(), 1u);
  s.run_until(Time{200});
  EXPECT_FALSE(fired);
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(s.now(), Time{200});
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, DeferredTimerFiresAtItsNewTimeInALaterRun) {
  Simulator s;
  Time fired_at{-1};
  EventHandle timer = s.at(Time{100}, [&] { fired_at = s.now(); });
  ASSERT_TRUE(s.defer(timer, Duration{300}));
  s.run_until(Time{200});
  ASSERT_EQ(fired_at, Time{-1});
  s.run_until(Time{400});
  EXPECT_EQ(fired_at, Time{300});
  EXPECT_FALSE(timer.pending());
  EXPECT_EQ(s.now(), Time{400});
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulator, CancelledTopIsSkippedWhenRunDrains) {
  Simulator s;
  std::vector<int> order;
  EventHandle first = s.at(Time{10}, [&] { order.push_back(1); });
  s.at(Time{20}, [&] { order.push_back(2); });
  first.cancel();
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(s.now(), Time{20});
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.scheduler().heap_size(), 0u);
}

TEST(Simulator, OnlyCancelledEventsLeaveTheClockAlone) {
  Simulator s;
  EventHandle only = s.at(Time{10}, [] { ADD_FAILURE() << "cancelled event ran"; });
  only.cancel();
  s.run();
  EXPECT_EQ(s.now(), kTimeZero);
  EXPECT_EQ(s.scheduler().heap_size(), 0u);
}

TEST(Simulator, EventAtNowFromCallbackFiresInTheSameRunUntil) {
  // Scheduled at exactly `until` from inside an event at `until`: the loop
  // must pick it up without another run_until call.
  Simulator s;
  std::vector<std::pair<int, Time>> order;
  s.at(Time{150}, [&] {
    order.emplace_back(1, s.now());
    s.at(s.now(), [&] { order.emplace_back(2, s.now()); });
  });
  s.run_until(Time{150});
  EXPECT_EQ(order, (std::vector<std::pair<int, Time>>{{1, Time{150}}, {2, Time{150}}}));
  EXPECT_EQ(s.events_executed(), 2u);
  EXPECT_TRUE(s.scheduler().empty());
}

TEST(Simulator, StopFlagReturnsAtAPollBoundaryWithTheNextEventPending) {
  // The flag is polled before an event whenever the executed count is a
  // multiple of the 1024-event poll interval. Set before the run, it stops
  // the loop ahead of the first event. Set after event 10, it is seen once
  // 1024 events have run; event 1025 stays pending and the clock stays at
  // event 1024's time instead of moving to `until`.
  Simulator s;
  std::atomic<bool> stop{true};
  s.set_stop_flag(&stop);
  constexpr int kEvents = 3000;
  int last = 0;
  for (int i = 1; i <= kEvents; ++i) {
    s.at(Time{i}, [&stop, &last, i] {
      last = i;
      if (i == 10) stop.store(true, std::memory_order_release);
    });
  }
  s.run_until(Time{kEvents + 100});
  EXPECT_TRUE(s.stopped());
  EXPECT_EQ(s.events_executed(), 0u);
  EXPECT_EQ(s.now(), kTimeZero);

  stop.store(false, std::memory_order_release);
  s.run_until(Time{kEvents + 100});
  EXPECT_TRUE(s.stopped());
  EXPECT_EQ(s.events_executed(), 1024u);
  EXPECT_EQ(last, 1024);
  EXPECT_EQ(s.now(), Time{1024});
  EXPECT_EQ(s.scheduler().live_size(), static_cast<std::size_t>(kEvents - 1024));

  stop.store(false, std::memory_order_release);
  s.run_until(Time{kEvents + 100});
  EXPECT_FALSE(s.stopped());
  EXPECT_EQ(last, kEvents);
  EXPECT_EQ(s.now(), Time{kEvents + 100});
}

TEST(Simulator, EventAtTimeInfinityFiresUnderRun) {
  // kTimeInfinity is a valid event time, not an "empty queue" marker.
  Simulator s;
  bool ran = false;
  s.at(kTimeInfinity, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), kTimeInfinity);
  EXPECT_EQ(s.events_executed(), 1u);
}

}  // namespace
}  // namespace pi2::sim
