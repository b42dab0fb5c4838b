#include "proto/network.h"

#include <utility>

#include "common/assert.h"
#include "obs/trace_sink.h"

namespace anu::proto {

namespace {

// Seconds per byte of payload (1 Gb/s-ish).
constexpr double kPerByte = 8e-9;
static_assert(kPerByte >= 0.0);

/// Trace payload shared by send and recv events: the message's variant
/// index is its kind (documented in docs/observability.md).
void trace_message(obs::TraceSink* trace, SimTime now, obs::EventType type,
                   std::uint32_t from, std::uint32_t to,
                   const Message& message, std::size_t bytes) {
  trace->emit(now, type, from, to,
              static_cast<std::uint32_t>(message.index()),
              static_cast<double>(bytes));
}

}  // namespace

Network::Network(anu::Clock& clock, const NetworkConfig& config,
                 std::size_t node_count)
    : clock_(clock),
      config_(config),
      rng_(config.seed),
      handlers_(node_count),
      up_(node_count, true) {
  ANU_REQUIRE(node_count > 0);
  ANU_REQUIRE(config.base_delay >= 0.0);
  ANU_REQUIRE(config.jitter >= 0.0 && config.jitter < 1.0);
}

void Network::attach(std::uint32_t node, Handler handler) {
  ANU_REQUIRE(node < handlers_.size());
  handlers_[node] = std::move(handler);
}

void Network::set_node_up(std::uint32_t node, bool up) {
  ANU_REQUIRE(node < up_.size());
  up_[node] = up;
}

bool Network::node_up(std::uint32_t node) const {
  ANU_REQUIRE(node < up_.size());
  return up_[node];
}

void Network::transmit(std::uint32_t from, std::uint32_t to,
                       const Message& message, std::size_t size,
                       double extra_delay) {
  ++sent_;
  bytes_ += size;
  if (auto* t = clock_.trace()) {
    trace_message(t, clock_.now(), obs::EventType::kMessageSend, from, to,
                  message, size);
  }
  const double delay =
      (config_.base_delay + kPerByte * static_cast<double>(size)) *
          (1.0 + config_.jitter * rng_.next_double()) +
      extra_delay;
  clock_.schedule_after(delay, [this, from, to, size, msg = message] {
    // Deliverability re-checked at delivery time: the receiver may have
    // failed while the message was in flight.
    if (!up_[to] || !handlers_[to]) {
      ++dropped_endpoint_;
      return;
    }
    ++delivered_;
    if (auto* t = clock_.trace()) {
      trace_message(t, clock_.now(), obs::EventType::kMessageRecv, from, to,
                    msg, size);
    }
    handlers_[to](from, msg);
  });
}

void Network::send(std::uint32_t from, std::uint32_t to, Message message) {
  ANU_REQUIRE(from < handlers_.size());
  ANU_REQUIRE(to < handlers_.size());
  if (!up_[from] || !up_[to]) {
    // Dropped before reaching the wire: no bytes are charged.
    ++dropped_endpoint_;
    return;
  }
  const std::size_t size = wire_size(message);
  std::uint32_t copies = 1;
  double extra_delay = 0.0;
  if (faults_ != nullptr) {
    const auto decision = faults_->decide(from, to, clock_.now());
    if (decision.drop) {
      ++dropped_injected_;
      if (decision.partitioned) {
        // A partition cut severs the link outright — nothing transmitted.
        if (auto* t = clock_.trace()) {
          t->emit(clock_.now(), obs::EventType::kFaultInject, from, to,
                  static_cast<std::uint32_t>(obs::FaultCause::kPartition));
        }
        return;
      }
      // Random loss: the message hit the wire and vanished; bandwidth was
      // spent, so the bytes are charged.
      ++sent_;
      bytes_ += size;
      if (auto* t = clock_.trace()) {
        t->emit(clock_.now(), obs::EventType::kFaultInject, from, to,
                static_cast<std::uint32_t>(obs::FaultCause::kLoss));
      }
      return;
    }
    copies = decision.copies;
    extra_delay = decision.extra_delay;
    if (auto* t = clock_.trace()) {
      if (copies > 1) {
        t->emit(clock_.now(), obs::EventType::kFaultInject, from, to,
                static_cast<std::uint32_t>(obs::FaultCause::kDuplicate),
                static_cast<double>(copies));
      }
      if (extra_delay > 0.0) {
        t->emit(clock_.now(), obs::EventType::kFaultInject, from, to,
                static_cast<std::uint32_t>(obs::FaultCause::kDelay),
                extra_delay);
      }
    }
  }
  duplicates_ += copies - 1;
  for (std::uint32_t copy = 0; copy < copies; ++copy) {
    // Each copy draws its own jitter, so duplicates can arrive reordered;
    // the injected extra delay applies to the original only.
    transmit(from, to, message, size, copy == 0 ? extra_delay : 0.0);
  }
}

}  // namespace anu::proto
