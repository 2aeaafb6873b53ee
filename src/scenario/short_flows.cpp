#include "scenario/short_flows.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "net/bottleneck_link.hpp"
#include "net/delay_pipe.hpp"
#include "sim/simulator.hpp"
#include "stats/meters.hpp"
#include "tcp/endpoint.hpp"

namespace pi2::scenario {

using pi2::sim::Duration;
using pi2::sim::from_seconds;
using pi2::sim::Time;
using pi2::sim::to_millis;
using pi2::sim::to_seconds;

double bounded_pareto_mean(double shape, double lo, double hi) {
  // E[X] for a Pareto with shape a truncated to [lo, hi].
  const double a = shape;
  const double la = std::pow(lo, a);
  const double ha = std::pow(hi, a);
  return la / (1.0 - la / ha) * (a / (a - 1.0)) *
         (1.0 / std::pow(lo, a - 1.0) - 1.0 / std::pow(hi, a - 1.0));
}

namespace {

struct ShortFlow {
  std::unique_ptr<tcp::TcpSender> sender;
  std::unique_ptr<tcp::TcpReceiver> receiver;
  Time started{};
  std::int64_t segments = 0;
};

}  // namespace

ShortFlowResult run_short_flows(const ShortFlowConfig& config) {
  pi2::sim::Simulator sim{config.seed};
  pi2::sim::Rng arrivals = sim.rng().split();
  pi2::sim::Rng sizes = sim.rng().split();

  net::BottleneckLink::Config link_config;
  link_config.rate_bps = config.link_rate_bps;
  link_config.buffer_packets = config.buffer_packets;
  net::BottleneckLink link{sim, link_config, config.aqm.make()};

  ShortFlowResult result;
  stats::UtilizationMeter util;
  link.set_busy_probe([&](Time a, Time b) { util.add_busy(a, b); });
  stats::PercentileSampler qdelay_ms;
  link.set_departure_probe([&](const net::Packet&, Duration sojourn) {
    if (sim.now() >= config.stats_start) qdelay_ms.add(to_millis(sojourn));
  });

  // Flow table: index = flow id. Finished flows stay allocated (their state
  // is tiny) so ids remain stable.
  std::vector<std::unique_ptr<ShortFlow>> flows;

  // Propagation both ways: fixed half-RTT delay lines.
  net::DelayPipe to_receivers{sim, config.base_rtt / 2};
  to_receivers.set_sink([&flows](net::Packet packet) {
    flows[static_cast<std::size_t>(packet.flow)]->receiver->on_data(packet);
  });
  net::DelayPipe to_senders{sim, config.base_rtt / 2};
  to_senders.set_sink([&flows](net::Packet ack) {
    flows[static_cast<std::size_t>(ack.flow)]->sender->on_ack(ack);
  });

  link.set_sink([&](net::Packet packet) {
    const auto id = static_cast<std::size_t>(packet.flow);
    if (id >= flows.size()) return;
    to_receivers.send(std::move(packet));
  });

  auto start_flow = [&](std::int64_t segments, bool background) {
    const auto id = static_cast<std::int32_t>(flows.size());
    auto flow = std::make_unique<ShortFlow>();
    flow->started = sim.now();
    flow->segments = segments;
    tcp::TcpSender::Config sc;
    sc.flow = id;
    sc.total_segments = background ? -1 : segments;
    sc.max_cwnd = 700;
    flow->sender = std::make_unique<tcp::TcpSender>(
        sim, sc, tcp::make_congestion_control(config.cc));
    flow->receiver = std::make_unique<tcp::TcpReceiver>(sim, id);
    ShortFlow* raw = flow.get();
    flow->sender->set_output([&link](net::Packet p) { link.send(p); });
    flow->receiver->set_ack_path(
        [&to_senders](net::Packet ack) { to_senders.send(std::move(ack)); });
    if (!background) {
      ++result.flows_started;
      flow->sender->set_completion_callback([&result, raw, &sim, &config] {
        ++result.flows_completed;
        if (raw->started >= config.stats_start) {
          const double fct = to_millis(sim.now() - raw->started);
          result.fct_ms.add(fct);
          (raw->segments < 100 ? result.fct_short_ms : result.fct_long_ms).add(fct);
        }
      });
    }
    flow->sender->start();
    flows.push_back(std::move(flow));
  };

  for (int i = 0; i < config.background_flows; ++i) {
    start_flow(-1, /*background=*/true);
  }

  // Poisson arrivals sized for the requested offered load.
  const double mean_segments = bounded_pareto_mean(
      config.pareto_shape, static_cast<double>(config.min_segments),
      static_cast<double>(config.max_segments));
  const double mean_bits = mean_segments * net::kDefaultMss * 8.0;
  const double lambda = config.offered_load * config.link_rate_bps / mean_bits;

  std::function<void()> arrive = [&] {
    const double size = sizes.bounded_pareto(
        config.pareto_shape, static_cast<double>(config.min_segments),
        static_cast<double>(config.max_segments));
    start_flow(static_cast<std::int64_t>(size), /*background=*/false);
    sim.after(from_seconds(arrivals.exponential(1.0 / lambda)), arrive);
  };
  sim.after(from_seconds(arrivals.exponential(1.0 / lambda)), arrive);

  sim.run_until(config.duration);

  result.mean_qdelay_ms = qdelay_ms.mean();
  const double span = to_seconds(config.duration - config.stats_start);
  if (span > 0.0) {
    // Approximate utilization over the stats window from the meter's series.
    util.flush(config.duration);
    double busy = 0.0;
    int windows = 0;
    for (const auto& point : util.series().points()) {
      if (point.t >= config.stats_start) {
        busy += point.value;
        ++windows;
      }
    }
    result.utilization = windows > 0 ? busy / windows : 0.0;
  }
  return result;
}

}  // namespace pi2::scenario
