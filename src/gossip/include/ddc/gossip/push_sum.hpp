// Push-sum average aggregation (Kempe, Dobra & Gehrke, FOCS 2003).
//
// This is the "regular average aggregation" baseline of the paper's
// Figures 3 and 4: it converges to the global average of all inputs but,
// having a single collection, cannot separate outliers from good values.
// It is also, structurally, the k = 1 special case of the generic
// algorithm — a useful cross-check the tests exploit.
#pragma once

#include <vector>

#include <ddc/linalg/vector.hpp>

namespace ddc::gossip {

/// Wire format of push-sum: a partial weighted sum.
struct PushSumMessage {
  linalg::Vector sum;    // Σ (weight share × value)
  double weight = 0.0;   // share of the total system weight

  [[nodiscard]] bool empty() const noexcept { return weight <= 0.0; }
};

/// One push-sum endpoint. Holds (s, w), initially (input, 1); each send
/// halves both and ships one half; each receive adds componentwise. The
/// running estimate s/w converges to the global average on any connected
/// topology with fair gossip (Boyd et al. [3]).
class PushSumNode {
 public:
  using Message = PushSumMessage;

  explicit PushSumNode(const linalg::Vector& input);

  /// Split step: keep half of (s, w), return the other half.
  [[nodiscard]] Message prepare_message();

  /// Receive step: add every message's (s, w) to the local pair.
  void absorb(std::vector<Message>&& batch);

  /// Current estimate of the global average (s/w). Requires weight() > 0.
  [[nodiscard]] linalg::Vector estimate() const;

  [[nodiscard]] double weight() const noexcept { return weight_; }

 private:
  linalg::Vector sum_;
  double weight_;
};

}  // namespace ddc::gossip
