#include "tcp/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pi2::tcp {

using pi2::sim::Duration;
using pi2::sim::from_seconds;
using pi2::sim::Time;
using pi2::sim::to_seconds;

TcpSender::TcpSender(pi2::sim::Simulator& sim, Config config,
                     std::unique_ptr<CongestionControl> cc)
    : sim_(sim), config_(config), cc_(std::move(cc)) {
  assert(cc_ != nullptr);
}

void TcpSender::start() {
  if (running_) return;
  running_ = true;
  maybe_send();
}

void TcpSender::stop() {
  running_ = false;
  rto_timer_.cancel();
}

double TcpSender::effective_window() const {
  double w = cc_->cwnd();
  if (config_.max_cwnd > 0.0) w = std::min(w, config_.max_cwnd);
  // Packet conservation during fast recovery: each duplicate ACK signals a
  // departure, so the usable window inflates by the duplicate count.
  if (in_recovery_) w += dup_acks_;
  return w;
}

void TcpSender::maybe_send() {
  if (!running_ || completed_) return;
  while (static_cast<double>(inflight()) < std::floor(effective_window()) &&
         !all_data_sent()) {
    transmit(snd_nxt_, /*is_retransmit=*/false);
    ++snd_nxt_;
  }
  // Ensure a timer is running while data is outstanding — but never push an
  // already-armed timer forward (duplicate ACKs must not delay the RTO, or a
  // lost retransmission would stall the flow in recovery forever).
  if (inflight() > 0 && !rto_timer_.pending()) arm_rto();
}

void TcpSender::transmit(std::int64_t seq, bool is_retransmit) {
  net::Packet packet;
  packet.flow = config_.flow;
  packet.seq = seq;
  packet.size = config_.mss_bytes;
  packet.ecn = cc_->ect();
  packet.retransmit = is_retransmit;
  packet.sent_at = sim_.now();
  if (send_cwr_) {
    packet.cwr = true;
    send_cwr_ = false;
  }
  ++segments_sent_;
  if (is_retransmit) ++retransmits_;
  if (output_) output_(packet);
}

Duration TcpSender::rto() const {
  double rto_s = rtt_valid_ ? srtt_s_ + 4.0 * rttvar_s_ : 1.0;
  rto_s = std::max(rto_s, to_seconds(kMinRto));
  rto_s = std::ldexp(rto_s, std::min(backoff_, 6));  // exponential backoff
  return from_seconds(rto_s);
}

void TcpSender::arm_rto() {
  // Every new ACK re-arms the timer; pushing the deadline later is a key
  // rewrite, not a cancelled heap entry per ACK.
  const Duration timeout = rto();
  if (!sim_.defer(rto_timer_, timeout)) {
    rto_timer_ = sim_.after(timeout, [this] { on_rto(); });
  }
}

void TcpSender::on_rto() {
  if (!running_ || completed_) return;
  ++timeouts_;
  ++backoff_;
  // Go-back-N: rewind and re-enter slow start from one segment.
  snd_nxt_ = snd_una_;
  in_recovery_ = false;
  dup_acks_ = 0;
  cc_->on_timeout(sim_.now());
  maybe_send();
  arm_rto();
}

void TcpSender::on_ack(const net::Packet& ack) {
  if (!running_ || completed_) return;
  assert(ack.is_ack);

  // DCTCP accurate feedback: account every ACK, duplicates included — each
  // reports the CE state of one received packet.
  cc_->on_ecn_sample(std::max<std::int64_t>(ack.ack_seq - snd_una_, 1), ack.ce_echo,
                     sim_.now());

  // Classic ECN echo: at most one window reduction per RTT.
  if (ack.ece && cc_->ect() == net::Ecn::kEct0 && sim_.now() >= ecn_cwr_until_) {
    cc_->on_congestion_event(sim_.now());
    const double srtt = rtt_valid_ ? srtt_s_ : 0.1;
    ecn_cwr_until_ = sim_.now() + from_seconds(srtt);
    send_cwr_ = true;
    if (in_recovery_) {
      // Already reducing for loss; do not double-count.
    }
  }

  if (ack.ack_seq > snd_una_) {
    const std::int64_t newly = ack.ack_seq - snd_una_;
    const bool was_in_recovery = in_recovery_;
    snd_una_ = ack.ack_seq;
    // After a go-back-N rewind, in-flight originals may be ACKed past the
    // rewound snd_nxt; never re-send data the ACK already covered.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    backoff_ = 0;

    // RTT sample from the echoed send timestamp (Karn's rule: the receiver
    // echoes the timestamp of the packet that triggered the ACK).
    const double sample = to_seconds(sim_.now() - ack.sent_at);
    if (sample > 0.0) {
      if (!rtt_valid_) {
        srtt_s_ = sample;
        rttvar_s_ = sample / 2.0;
        rtt_valid_ = true;
      } else {
        rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - sample);
        srtt_s_ = 0.875 * srtt_s_ + 0.125 * sample;
      }
    }

    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        dup_acks_ = 0;
      } else {
        // NewReno partial ACK: the next hole is lost too; retransmit it and
        // stay in recovery without a further window reduction.
        transmit(snd_una_, /*is_retransmit=*/true);
      }
    } else {
      dup_acks_ = 0;
    }

    // Window growth. A cumulative ACK that ends loss recovery (or follows a
    // go-back-N rewind) can cover thousands of segments at once; feeding it
    // into the growth law verbatim would explode the window, so growth is
    // suppressed on the recovery-exit ACK (Linux leaves recovery with
    // cwnd = ssthresh) and the ACKed amount is clamped to one window's
    // worth for everything else.
    const auto growth_cap = static_cast<std::int64_t>(cc_->cwnd()) + 1;
    cc_->on_ack(std::min(newly, growth_cap), from_seconds(srtt_s_), sim_.now(),
                in_recovery_ || was_in_recovery);

    if (config_.total_segments >= 0 && snd_una_ >= config_.total_segments) {
      completed_ = true;
      running_ = false;
      rto_timer_.cancel();
      if (on_complete_) on_complete_();
      return;
    }
    arm_rto();
  } else if (inflight() > 0) {
    // Duplicate ACK.
    ++dup_acks_;
    if (!in_recovery_ && dup_acks_ >= 3) {
      in_recovery_ = true;
      recover_ = snd_nxt_;
      cc_->on_congestion_event(sim_.now());
      transmit(snd_una_, /*is_retransmit=*/true);
      arm_rto();
    }
  }

  maybe_send();
}

void TcpReceiver::emit_ack(bool ce_echo, Time data_sent_at) {
  delack_timer_.cancel();
  unacked_segments_ = 0;
  net::Packet ack;
  ack.flow = flow_;
  ack.is_ack = true;
  ack.size = net::kAckBytes;
  ack.ack_seq = rcv_nxt_;
  ack.ece = ece_latched_;
  ack.ce_echo = ce_echo;  // DCTCP accurate per-packet echo
  ack.sent_at = data_sent_at;
  if (ack_path_) ack_path_(ack);
}

void TcpReceiver::on_data(const net::Packet& data) {
  assert(!data.is_ack);
  const bool was_ce = data.ecn == net::Ecn::kCe;
  if (was_ce) ++ce_received_;

  // Classic ECN latch (RFC 3168): set ECE on every ACK from the first CE
  // until the sender signals CWR.
  if (was_ce) ece_latched_ = true;
  if (data.cwr) ece_latched_ = false;

  const bool in_order = data.seq == rcv_nxt_;
  if (in_order) {
    ++rcv_nxt_;
    if (delivery_probe_) delivery_probe_(data);
    while (!out_of_order_.empty() && *out_of_order_.begin() == rcv_nxt_) {
      out_of_order_.erase(out_of_order_.begin());
      ++rcv_nxt_;
      if (delivery_probe_) delivery_probe_(data);
    }
  } else if (data.seq > rcv_nxt_) {
    out_of_order_.insert(data.seq);
  }
  // data.seq < rcv_nxt_: spurious retransmission; still ACK it.

  // Delayed ACKs apply only to clean in-order, unmarked data; gaps,
  // duplicates and CE marks are acknowledged immediately.
  if (options_.delayed_acks && in_order && !was_ce && out_of_order_.empty()) {
    ++unacked_segments_;
    if (unacked_segments_ < options_.ack_every) {
      pending_sent_at_ = data.sent_at;
      if (!sim_.defer(delack_timer_, options_.delack_timeout)) {
        delack_timer_ = sim_.after(options_.delack_timeout, [this] {
          emit_ack(/*ce_echo=*/false, pending_sent_at_);
        });
      }
      return;
    }
  }
  emit_ack(was_ce, data.sent_at);
}

}  // namespace pi2::tcp
