// A BottleneckLink running a DualPi2Qdisc — the arrangement run_dumbbell
// builds for AqmType::kDualPi2 — plus packet builders that tag each packet
// with the band it classifies into, so departure probes can tell L from C
// even after a Classic packet has been CE-marked.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/dualpi2.hpp"
#include "net/bottleneck_link.hpp"
#include "sim/simulator.hpp"

namespace pi2::core::testing {

inline constexpr std::int32_t kLFlow = 1;  ///< flow id of L-band packets
inline constexpr std::int32_t kCFlow = 0;  ///< flow id of C-band packets

inline net::Packet packet_with(net::Ecn ecn) {
  net::Packet p;
  p.ecn = ecn;
  p.flow = net::is_scalable(ecn) ? kLFlow : kCFlow;
  return p;
}

inline bool from_l(const net::Packet& p) { return p.flow == kLFlow; }

struct DualQLink {
  DualQLink(pi2::sim::Simulator& sim, double rate_bps,
            std::int64_t buffer_packets = 40000) {
    auto owned = std::make_unique<DualPi2Qdisc>();
    qdisc = owned.get();
    link = std::make_unique<net::BottleneckLink>(
        sim, net::BottleneckLink::Config{rate_bps, buffer_packets},
        std::move(owned));
  }

  /// Queue delay of one band: its byte backlog at the link rate.
  [[nodiscard]] pi2::sim::Duration band_delay(std::size_t band) const {
    return pi2::sim::from_seconds(
        static_cast<double>(link->band_backlog_bytes(band)) * 8.0 /
        link->link_rate_bps());
  }

  DualPi2Qdisc* qdisc = nullptr;  ///< owned by `link`
  std::unique_ptr<net::BottleneckLink> link;
};

}  // namespace pi2::core::testing
