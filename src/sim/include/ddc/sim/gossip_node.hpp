// The node interface the simulation runners drive, plus the options
// vocabulary shared by both engines (round-based and asynchronous).
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

namespace ddc::sim {

/// A protocol endpoint as seen by the runners. One gossip exchange is:
/// the runner asks the sender to `prepare_message()` (for the classifier
/// this performs Algorithm 1's split) and later hands the receiver a batch
/// of messages via `absorb()` (the classifier unions them and runs one
/// partition — exactly how the paper's simulations process multi-message
/// rounds, Section 5.3).
///
/// An empty message (`msg.empty()`) means "nothing to send this time" and
/// is not delivered.
template <typename N>
concept GossipNode = requires(N node, typename N::Message message,
                              std::vector<typename N::Message> batch) {
  typename N::Message;
  { node.prepare_message() } -> std::convertible_to<typename N::Message>;
  { std::as_const(message).empty() } -> std::convertible_to<bool>;
  { node.absorb(std::move(batch)) };
};

/// How a node picks which neighbor to gossip with. Both satisfy the
/// paper's fairness requirement (each neighbor chosen infinitely often):
/// round-robin deterministically, uniform-random with probability 1.
enum class NeighborSelection {
  round_robin,
  uniform_random,
};

/// Gossip communication pattern (Section 4.1 mentions push, pull and
/// push-pull as admissible), shared by both engines:
///   * push: the initiator ships half its state to the chosen neighbor;
///   * pull: the initiator asks the chosen neighbor, which ships half of
///     ITS state back (in the asynchronous engine this costs one extra
///     round-trip of latency; the round engine folds it into the round);
///   * push_pull: both directions — twice the messages per initiator,
///     roughly twice the mixing speed.
enum class GossipPattern {
  push,
  pull,
  push_pull,
};

/// What a live node does about crashed neighbors (round engine and scale
/// engine; the async engine models reliable crash-free channels).
enum class CrashSendPolicy {
  /// Nodes detect dead neighbors and gossip only with live ones (a radio
  /// mote notices silence). Weight is lost only when a node crashes while
  /// holding it — the Fig. 4 regime.
  avoid_crashed,
  /// Nodes keep addressing crashed neighbors; those messages (and their
  /// weight) vanish. On dense graphs with heavy mortality this drains the
  /// whole system's weight — a harsher failure model, kept for study.
  drop_at_crashed,
};

/// Options shared by the round-based and asynchronous engines. The
/// engine-specific option structs extend this, so the common fields are
/// spelled (and defaulted) once.
struct CommonRunnerOptions {
  NeighborSelection selection = NeighborSelection::uniform_random;
  GossipPattern pattern = GossipPattern::push;
  /// Seed for the engine's environment draws (neighbor selection, and —
  /// per engine — delays, crashes, losses). Node-local randomness (EM
  /// restarts) derives from EngineConfig::protocol_seed, so environment
  /// and protocol streams never interfere.
  std::uint64_t seed = 1;
};

}  // namespace ddc::sim
