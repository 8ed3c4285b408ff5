#include <ddc/gossip/push_sum.hpp>

#include <ddc/common/assert.hpp>

namespace ddc::gossip {

PushSumNode::PushSumNode(const linalg::Vector& input)
    : sum_(input), weight_(1.0) {}

PushSumMessage PushSumNode::prepare_message() {
  PushSumMessage out{sum_ * 0.5, weight_ * 0.5};
  sum_ *= 0.5;
  weight_ *= 0.5;
  return out;
}

void PushSumNode::absorb(std::vector<PushSumMessage>&& batch) {
  DDC_EXPECTS(!batch.empty());
  for (auto& m : batch) {
    DDC_EXPECTS(m.sum.dim() == sum_.dim());
    sum_ += m.sum;
    weight_ += m.weight;
  }
}

linalg::Vector PushSumNode::estimate() const {
  DDC_EXPECTS(weight_ > 0.0);
  return sum_ / weight_;
}

}  // namespace ddc::gossip
