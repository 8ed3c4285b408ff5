// Execution tracing for round-based simulations.
//
// A TraceRecorder attached to the object engine (the one-shard
// shard::ShardEngine) logs every protocol-relevant
// event — sends, deliveries, channel losses, packets to dead nodes,
// crashes — with round numbers and endpoints. Experiments use it to
// account for message complexity; the CSV export feeds external analysis.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include <ddc/sim/topology.hpp>

namespace ddc::sim {

/// What happened.
enum class TraceEventType : std::uint8_t {
  send,             ///< a node emitted a message
  deliver,          ///< a message entered a node's inbox
  loss,             ///< the channel dropped the message
  dead_target,      ///< the target had crashed (drop_at_crashed policy)
  crash,            ///< a node crashed (to = from)
  no_live_neighbor, ///< a sender found no live neighbor to gossip with
};

/// Human-readable tag for CSV output.
[[nodiscard]] std::string_view to_string(TraceEventType type) noexcept;

/// One recorded event.
struct TraceEvent {
  std::size_t round;
  TraceEventType type;
  NodeId from;
  NodeId to;
  /// Message payload in collections (1 for scalar messages like push-sum).
  std::size_t payload_units;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Accumulates trace events; attach via shard::ShardEngine::set_trace.
class TraceRecorder {
 public:
  void record(TraceEvent event) { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  /// Number of events of the given type.
  [[nodiscard]] std::size_t count(TraceEventType type) const noexcept;

  /// Sum of payload_units over `send` events — total collections shipped.
  [[nodiscard]] std::uint64_t total_payload_sent() const noexcept;

  /// Writes `round,event,from,to,payload` CSV (with header).
  void write_csv(std::ostream& os) const;

  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace ddc::sim
