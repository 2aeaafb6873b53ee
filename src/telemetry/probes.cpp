#include "telemetry/probes.hpp"

namespace pi2::telemetry {

void attach_link_probes(MetricsRegistry& registry, net::BottleneckLink& link) {
  const net::BottleneckLink::Counters& c = link.counters();
  registry.gauge("link.enqueued", [&c] { return static_cast<double>(c.enqueued); });
  registry.gauge("link.forwarded", [&c] { return static_cast<double>(c.forwarded); });
  registry.gauge("link.aqm_dropped",
                 [&c] { return static_cast<double>(c.aqm_dropped); });
  registry.gauge("link.tail_dropped",
                 [&c] { return static_cast<double>(c.tail_dropped); });
  registry.gauge("link.marked", [&c] { return static_cast<double>(c.marked); });
  registry.gauge("link.fault_dropped",
                 [&c] { return static_cast<double>(c.fault_dropped); });
  registry.gauge("link.rate_mbps", [&link] { return link.link_rate_bps() / 1e6; });
  registry.gauge("queue.backlog_bytes",
                 [&link] { return static_cast<double>(link.backlog_bytes()); });
  registry.gauge("queue.backlog_packets",
                 [&link] { return static_cast<double>(link.backlog_packets()); });
  registry.gauge("queue.delay_ms",
                 [&link] { return pi2::sim::to_millis(link.queue_delay()); });

  // Per-packet distribution tails: sojourn resolved from 1 us to 100 s.
  Histogram& sojourn = registry.histogram(
      "link.sojourn_ms", Histogram::Config{1e-3, 1e5, 8});
  Counter& tx_bytes = registry.counter("link.tx_bytes");
  link.probes().add_departure(
      [&sojourn, &tx_bytes](const net::Packet& p, pi2::sim::Duration d) {
        sojourn.record(pi2::sim::to_millis(d));
        tx_bytes.inc(static_cast<std::uint64_t>(p.size));
      });
}

void attach_aqm_probes(MetricsRegistry& registry,
                       const net::QueueDiscipline& qdisc) {
  registry.gauge("aqm.p", [&qdisc] { return qdisc.classic_probability(); });
  registry.gauge("aqm.p_prime",
                 [&qdisc] { return qdisc.scalable_probability(); });
  registry.gauge("aqm.guard_events",
                 [&qdisc] { return static_cast<double>(qdisc.guard_events()); });
}

void attach_simulator_probes(MetricsRegistry& registry, const sim::Simulator& sim) {
  registry.gauge("sim.events_executed",
                 [&sim] { return static_cast<double>(sim.events_executed()); });
  registry.gauge("sim.clamped_events",
                 [&sim] { return static_cast<double>(sim.clamped_events()); });
  registry.gauge("sim.sched_heap", [&sim] {
    return static_cast<double>(sim.scheduler().heap_size());
  });
  registry.gauge("sim.sched_live", [&sim] {
    return static_cast<double>(sim.scheduler().live_size());
  });
  registry.gauge("sim.sched_compactions", [&sim] {
    return static_cast<double>(sim.scheduler().compactions());
  });
  registry.gauge("sim.sched_cancelled", [&sim] {
    return static_cast<double>(sim.scheduler().cancelled());
  });
}

}  // namespace pi2::telemetry
