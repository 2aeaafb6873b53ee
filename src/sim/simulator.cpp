#include "sim/simulator.hpp"

namespace pi2::sim {

bool Simulator::should_stop() {
  if (stop_ == nullptr) return false;
  if (scheduler_.executed() % kStopPollInterval != 0) return false;
  if (!stop_->load(std::memory_order_acquire)) return false;
  stopped_ = true;
  return true;
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  // The clock must advance *before* the event executes, so that callbacks
  // observe now() == their scheduled time.
  while (const Time* next = scheduler_.peek()) {
    if (*next > until) break;
    if (should_stop()) return;
    now_ = *next;
    scheduler_.fire_top();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  stopped_ = false;
  while (const Time* next = scheduler_.peek()) {
    if (should_stop()) return;
    now_ = *next;
    scheduler_.fire_top();
  }
}

}  // namespace pi2::sim
