// Microbenchmarks for the discrete-event scheduler hot path: every
// simulated second executes hundreds of thousands of events (packet
// serializations, RTO timers, PI update ticks), so per-event overhead is
// the floor under every figure's wall clock.
//
// `Legacy*` benchmarks replicate the seed implementation — std::function
// callbacks plus a shared_ptr<bool> cancellation flag per event on a
// std::priority_queue — as the baseline the slab/UniqueFunction scheduler
// is measured against. bench/run_benchmarks.sh records both sides in
// BENCH_sweep.json so the delta is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using pi2::sim::Time;

// --- Seed-era scheduler, kept verbatim as the benchmark baseline. -----------

class LegacyHandle {
 public:
  LegacyHandle() = default;
  explicit LegacyHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  void cancel() {
    if (alive_) *alive_ = false;
  }

 private:
  std::shared_ptr<bool> alive_;
};

class LegacyScheduler {
 public:
  LegacyHandle schedule_at(Time at, std::function<void()> fn) {
    auto alive = std::make_shared<bool>(true);
    heap_.push(Entry{at, next_seq_++, std::move(fn), alive});
    return LegacyHandle{std::move(alive)};
  }
  [[nodiscard]] bool empty() {
    skim();
    return heap_.empty();
  }
  void run_next() {
    skim();
    Entry entry = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    *entry.alive = false;
    entry.fn();
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  void skim() {
    while (!heap_.empty() && !*heap_.top().alive) heap_.pop();
  }
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

// --- Workloads, run against both schedulers. --------------------------------

/// Schedule N events, then drain them in time order.
template <typename SchedulerT>
void schedule_and_drain(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    SchedulerT s;
    for (std::int64_t i = 0; i < n; ++i) {
      s.schedule_at(Time{(i * 7919) % n}, [&sink] { ++sink; });
    }
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n);
}

/// RTO-timer churn: every event re-arms a timer and cancels the previous
/// one, so almost every scheduled entry dies before surfacing. This is the
/// pattern that grows the seed scheduler's heap without bound until the
/// garbage happens to reach the top.
template <typename SchedulerT, typename HandleT>
void timer_churn(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    SchedulerT s;
    HandleT pending{};
    for (std::int64_t i = 0; i < n; ++i) {
      pending.cancel();
      pending = s.schedule_at(Time{i + 1000}, [&sink] { ++sink; });
      s.schedule_at(Time{i}, [] {});
    }
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n * 2);
}

/// The same churn with the timer re-armed through Scheduler::defer(): a
/// later deadline rewrites the pending event's key instead of leaving a
/// cancelled heap entry behind (the TcpSender::arm_rto pattern).
void timer_defer(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    pi2::sim::Scheduler s;
    pi2::sim::EventHandle pending{};
    for (std::int64_t i = 0; i < n; ++i) {
      if (!s.defer(pending, Time{i + 1000})) {
        pending = s.schedule_at(Time{i + 1000}, [&sink] { ++sink; });
      }
      s.schedule_at(Time{i}, [] {});
    }
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n * 2);
}

void BM_ScheduleAndDrain(benchmark::State& state) {
  schedule_and_drain<pi2::sim::Scheduler>(state);
}
BENCHMARK(BM_ScheduleAndDrain)->Arg(1 << 10)->Arg(1 << 14);

void BM_Legacy_ScheduleAndDrain(benchmark::State& state) {
  schedule_and_drain<LegacyScheduler>(state);
}
BENCHMARK(BM_Legacy_ScheduleAndDrain)->Arg(1 << 10)->Arg(1 << 14);

void BM_TimerChurn(benchmark::State& state) {
  timer_churn<pi2::sim::Scheduler, pi2::sim::EventHandle>(state);
}
BENCHMARK(BM_TimerChurn)->Arg(1 << 10)->Arg(1 << 14);

void BM_TimerDefer(benchmark::State& state) { timer_defer(state); }
BENCHMARK(BM_TimerDefer)->Arg(1 << 10)->Arg(1 << 14);

void BM_Legacy_TimerChurn(benchmark::State& state) {
  timer_churn<LegacyScheduler, LegacyHandle>(state);
}
BENCHMARK(BM_Legacy_TimerChurn)->Arg(1 << 10)->Arg(1 << 14);

/// Periodic self-rescheduling tick (the PI update / sampling pattern).
void BM_PeriodicTick(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    pi2::sim::Scheduler s;
    std::int64_t remaining = n;
    std::function<void(Time)> tick = [&](Time at) {
      ++ticks;
      if (--remaining > 0) {
        s.schedule_at(at + Time{16'000'000}, [&tick, at] { tick(at + Time{16'000'000}); });
      }
    };
    s.schedule_at(Time{0}, [&tick] { tick(Time{0}); });
    while (!s.empty()) s.run_next();
  }
  benchmark::DoNotOptimize(ticks);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PeriodicTick)->Arg(1 << 12);

}  // namespace

BENCHMARK_MAIN();
