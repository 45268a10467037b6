// Calendar of per-node message-arrival cycles for the wormhole engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "topology/network.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

/// Each active node has exactly one entry: the first cycle its next
/// Poisson arrival is due.  A power-of-two wheel holds one bucket of
/// nodes per cycle of the horizon [now, now + kWheelSize); entries beyond
/// it wait in an overflow min-heap and migrate into the wheel as they come
/// within the horizon.  Scheduling within the horizon is a push_back; only
/// gaps beyond it pay a heap sift.  take_due() must be called once for
/// every cycle, in order.
class ArrivalCalendar {
 public:
  ArrivalCalendar() : wheel_(kWheelSize) {}

  /// Files `node` as due at `due`; `now` is the current cycle (no entry
  /// may be due in the past).
  void schedule(std::uint64_t now, std::uint64_t due, topology::NodeId node) {
    WORMSIM_DCHECK(due >= now && due >= next_);
    if (due - now < kWheelSize) {
      wheel_[due & kMask].push_back(node);
    } else {
      overflow_.emplace(due, node);
    }
    ++size_;
  }

  /// Replaces `due` with the nodes due at `now`, in ascending node id (the
  /// RNG draw order of the original all-nodes scan).
  void take_due(std::uint64_t now, std::vector<topology::NodeId>& due) {
    WORMSIM_DCHECK(now == next_);
    next_ = now + 1;
    while (!overflow_.empty() && overflow_.top().first - now < kWheelSize) {
      wheel_[overflow_.top().first & kMask].push_back(overflow_.top().second);
      overflow_.pop();
    }
    std::vector<topology::NodeId>& bucket = wheel_[now & kMask];
    due.clear();
    if (bucket.empty()) return;
    due.swap(bucket);
    std::sort(due.begin(), due.end());
    size_ -= due.size();
  }

  /// Entries filed (one per active node between take_due calls).
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kWheelSize = 1024;  // a power of two
  static constexpr std::uint64_t kMask = kWheelSize - 1;

  std::vector<std::vector<topology::NodeId>> wheel_;
  std::priority_queue<std::pair<std::uint64_t, topology::NodeId>,
                      std::vector<std::pair<std::uint64_t, topology::NodeId>>,
                      std::greater<>>
      overflow_;
  std::uint64_t next_ = 0;  ///< the cycle the next take_due() serves
  std::size_t size_ = 0;
};

}  // namespace wormsim::sim
