#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

namespace pi2::sim {
namespace {

TEST(Scheduler, EmptyInitially) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), kTimeInfinity);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time{30}, [&] { order.push_back(3); });
  s.schedule_at(Time{10}, [&] { order.push_back(1); });
  s.schedule_at(Time{20}, [&] { order.push_back(2); });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(Time{100}, [&order, i] { order.push_back(i); });
  }
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunNextReturnsEventTime) {
  Scheduler s;
  s.schedule_at(Time{55}, [] {});
  EXPECT_EQ(s.run_next(), Time{55});
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_at(Time{10}, [&] { ran = true; });
  h.cancel();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelIsIdempotent) {
  Scheduler s;
  EventHandle h = s.schedule_at(Time{10}, [] {});
  h.cancel();
  h.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, PendingReflectsLifecycle) {
  Scheduler s;
  EventHandle h = s.schedule_at(Time{10}, [] {});
  EXPECT_TRUE(h.pending());
  s.run_next();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, DefaultHandleIsNotPending) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, must not crash
}

TEST(Scheduler, CancelledEventDoesNotBlockNextTime) {
  Scheduler s;
  EventHandle h = s.schedule_at(Time{10}, [] {});
  s.schedule_at(Time{20}, [] {});
  h.cancel();
  EXPECT_EQ(s.next_time(), Time{20});
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time{10}, [&] {
    order.push_back(1);
    s.schedule_at(Time{15}, [&] { order.push_back(2); });
  });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, CountsExecutedEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(Time{i}, [] {});
  while (!s.empty()) s.run_next();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Scheduler, CompactionBoundsHeapUnderCancelChurn) {
  // Regression: the seed scheduler kept cancelled entries until they
  // surfaced, so schedule/cancel churn (RTO timers) grew the heap without
  // bound. Compaction must keep dead entries below half the heap.
  Scheduler s;
  constexpr int kTimers = 1'000'000;
  EventHandle pending;
  for (int i = 0; i < kTimers; ++i) {
    pending.cancel();
    // Far-future timer that will never fire before being replaced.
    pending = s.schedule_at(Time{1'000'000'000 + i}, [] {});
    EXPECT_LE(s.heap_size(), 2 * s.live_size() + 64)
        << "heap carries unbounded cancelled garbage at i=" << i;
  }
  EXPECT_LE(s.heap_size(), 128u);
  EXPECT_EQ(s.live_size(), 1u);
  EXPECT_GT(s.compactions(), 0u);
  pending.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SlotReuseDoesNotConfuseStaleHandles) {
  // After an event fires, its slab slot may be recycled for a new event; a
  // stale handle to the fired event must not cancel or observe the new one.
  Scheduler s;
  EventHandle first = s.schedule_at(Time{1}, [] {});
  s.run_next();  // fires `first`, freeing its slot
  bool second_ran = false;
  EventHandle second = s.schedule_at(Time{2}, [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  first.cancel();  // stale: must be a no-op on the recycled slot
  EXPECT_TRUE(second.pending());
  s.run_next();
  EXPECT_TRUE(second_ran);
}

TEST(Scheduler, CancelInsideCallbackOfSameInstant) {
  Scheduler s;
  bool victim_ran = false;
  EventHandle victim;
  s.schedule_at(Time{10}, [&] { victim.cancel(); });
  victim = s.schedule_at(Time{10}, [&] { victim_ran = true; });
  while (!s.empty()) s.run_next();
  EXPECT_FALSE(victim_ran);
}

TEST(Scheduler, LargeCallbacksFallBackToHeapCorrectly) {
  // Captures beyond UniqueFunction's inline buffer must still run and
  // destroy correctly (heap fallback path).
  Scheduler s;
  auto big = std::make_shared<std::vector<int>>(1000, 7);
  std::array<std::shared_ptr<std::vector<int>>, 8> copies;
  copies.fill(big);
  int seen = 0;
  s.schedule_at(Time{1}, [copies, &seen] { seen = (*copies[7])[0]; });
  copies.fill(nullptr);  // only the scheduled callback holds references now
  EXPECT_EQ(big.use_count(), 9);
  s.run_next();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(big.use_count(), 1);  // callback's captures were destroyed
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = (i * 7919) % 1000;
    s.schedule_at(Time{t}, [&times, t] { times.push_back(t); });
  }
  while (!s.empty()) s.run_next();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.size(), 1000u);
}

TEST(Defer, LaterTimeIsLazyAndKeepsCallback) {
  Scheduler s;
  std::vector<std::pair<int, Time>> order;
  EventHandle timer = s.schedule_at(Time{10}, [&] { order.emplace_back(1, Time{}); });
  s.schedule_at(Time{20}, [&] { order.emplace_back(2, Time{}); });
  EXPECT_TRUE(s.defer(timer, Time{30}));
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(s.heap_size(), 2u);  // no new heap entry, no dead one
  EXPECT_EQ(s.live_size(), 2u);
  EXPECT_EQ(s.cancelled(), 0u);
  EXPECT_EQ(s.next_time(), Time{20});
  std::vector<Time> times;
  while (!s.empty()) times.push_back(s.run_next());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 2);
  EXPECT_EQ(order[1].first, 1);  // the original callback, at the new time
  EXPECT_EQ(times, (std::vector<Time>{Time{20}, Time{30}}));
}

TEST(Defer, EarlierTimeCancelsAndReturnsFalse) {
  Scheduler s;
  bool ran = false;
  EventHandle timer = s.schedule_at(Time{30}, [&] { ran = true; });
  EXPECT_FALSE(s.defer(timer, Time{10}));
  EXPECT_FALSE(timer.pending());
  EXPECT_EQ(s.cancelled(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(ran);
}

TEST(Defer, HandleThatIsNotPendingReturnsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.defer(EventHandle{}, Time{5}));
  EventHandle fired = s.schedule_at(Time{1}, [] {});
  s.run_next();
  EXPECT_FALSE(s.defer(fired, Time{5}));
  EventHandle cancelled = s.schedule_at(Time{2}, [] {});
  cancelled.cancel();
  EXPECT_FALSE(s.defer(cancelled, Time{5}));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.cancelled(), 1u);  // only the explicit cancel
}

TEST(Defer, FromInsideCallbackAtSameInstant) {
  // Deferring to the current instant takes a fresh sequence number, so the
  // timer moves behind every event already scheduled for that instant —
  // exactly where cancel + schedule_at would put it.
  Scheduler s;
  std::vector<char> order;
  EventHandle timer;
  s.schedule_at(Time{10}, [&] {
    order.push_back('x');
    EXPECT_TRUE(s.defer(timer, Time{10}));
  });
  timer = s.schedule_at(Time{10}, [&] { order.push_back('t'); });
  s.schedule_at(Time{10}, [&] { order.push_back('y'); });
  while (!s.empty()) EXPECT_EQ(s.run_next(), Time{10});
  EXPECT_EQ(order, (std::vector<char>{'x', 'y', 't'}));
}

/// The scheduler under test, driven through defer() and reserved keys.
class LazyBackend {
 public:
  using Handle = EventHandle;
  explicit LazyBackend(std::function<void(int)> fire) : fire_(std::move(fire)) {}
  Handle schedule_at(Time at, int id) {
    return s_.schedule_at(at, [this, id] { fire_(id); });
  }
  Handle schedule(EventKey key, int id) {
    return s_.schedule(key, [this, id] { fire_(id); });
  }
  void cancel(Handle& h) { h.cancel(); }
  bool defer(Handle& h, Time at) { return s_.defer(h, at); }
  EventKey reserve(Time at) { return EventKey{at, s_.reserve_seq()}; }
  bool empty() const { return s_.empty(); }
  Time now() const { return now_; }
  void run_next() {
    now_ = s_.next_time();
    EXPECT_EQ(s_.run_next(), now_);
  }

 private:
  Scheduler s_;
  Time now_{};
  std::function<void(int)> fire_;
};

/// Reference: an ordered map with eager cancel-and-reschedule; defer()
/// always removes the event and re-inserts it under a fresh sequence.
class EagerBackend {
 public:
  using Handle = int;  // ticket; -1 = none
  explicit EagerBackend(std::function<void(int)> fire) : fire_(std::move(fire)) {}
  Handle schedule_at(Time at, int id) { return schedule(EventKey{at, seq_++}, id); }
  Handle schedule(EventKey key, int id) {
    const int ticket = next_ticket_++;
    queue_[{key.at.count(), key.seq}] = {ticket, id};
    key_of_[ticket] = {key.at.count(), key.seq};
    return ticket;
  }
  void cancel(Handle& h) {
    const auto it = key_of_.find(h);
    if (it == key_of_.end()) return;
    queue_.erase(it->second);
    key_of_.erase(it);
  }
  bool defer(Handle& h, Time at) {
    const auto it = key_of_.find(h);
    if (it == key_of_.end()) return false;
    const bool later = at.count() >= it->second.first;
    const int id = queue_.at(it->second).second;
    cancel(h);
    if (!later) return false;
    const std::pair<std::int64_t, std::uint64_t> key{at.count(), seq_++};
    queue_[key] = {h, id};
    key_of_[h] = key;
    return true;
  }
  EventKey reserve(Time at) { return EventKey{at, seq_++}; }
  bool empty() const { return queue_.empty(); }
  Time now() const { return now_; }
  void run_next() {
    const auto it = queue_.begin();
    now_ = Time{it->first.first};
    const auto [ticket, id] = it->second;
    key_of_.erase(ticket);
    queue_.erase(it);
    fire_(id);
  }

 private:
  std::map<std::pair<std::int64_t, std::uint64_t>, std::pair<int, int>> queue_;
  std::map<int, std::pair<std::int64_t, std::uint64_t>> key_of_;
  std::uint64_t seq_ = 0;
  int next_ticket_ = 0;
  Time now_{};
  std::function<void(int)> fire_;
};

/// Random schedule / cancel / defer / reserve + keyed-schedule program,
/// with callbacks that defer and schedule at their own instant. Returns the
/// firing sequence (event id, time).
template <typename Backend>
std::vector<std::pair<int, Time>> random_program(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::pair<int, Time>> fired;
  std::vector<typename Backend::Handle> handles;
  std::vector<EventKey> reserved;
  Backend* backend = nullptr;
  // Re-arm semantics of a timer: defer, or schedule afresh under the same id.
  const auto rearm = [&](std::size_t id, Time at) {
    if (!backend->defer(handles[id], at)) {
      handles[id] = backend->schedule_at(at, static_cast<int>(id));
    }
  };
  const auto add = [&](Time at) {
    handles.push_back(backend->schedule_at(at, static_cast<int>(handles.size())));
  };
  Backend b{[&](int id) {
    fired.emplace_back(id, backend->now());
    switch (pick(4)) {
      case 0:  // re-arm another timer, possibly to this very instant
        rearm(pick(handles.size()), backend->now() + Time{pick(3)});
        break;
      case 1:  // same-instant tie
        add(backend->now());
        break;
      default:
        break;
    }
  }};
  backend = &b;
  for (int step = 0; step < 4000; ++step) {
    const Time soon = b.now() + Time{pick(9)};
    switch (pick(10)) {
      case 0:
      case 1:
      case 2:
        add(soon);
        break;
      case 3:
        if (!handles.empty()) b.cancel(handles[pick(handles.size())]);
        break;
      case 4:
      case 5:
        if (!handles.empty()) rearm(pick(handles.size()), soon);
        break;
      case 6:
        reserved.push_back(b.reserve(soon));
        break;
      case 7:
        if (!reserved.empty()) {
          const std::size_t k = pick(reserved.size());
          const EventKey key = reserved[k];
          reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
          if (key.at >= b.now()) {
            handles.push_back(b.schedule(key, static_cast<int>(handles.size())));
          }
        }
        break;
      default:
        if (!b.empty()) b.run_next();
        break;
    }
  }
  while (!b.empty()) b.run_next();
  return fired;
}

TEST(Defer, RandomProgramsMatchEagerCancelAndReschedule) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto lazy = random_program<LazyBackend>(seed);
    const auto eager = random_program<EagerBackend>(seed);
    ASSERT_GT(lazy.size(), 1000u);
    ASSERT_EQ(lazy, eager) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pi2::sim
