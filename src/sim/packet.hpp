// Packet bookkeeping shared by the wormhole and store-and-forward engines.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/network.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

using PacketId = std::uint32_t;
inline constexpr PacketId kNoPacket = topology::kInvalidId;
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

/// One buffered flit's place in its worm, as a buffer slot stores it: the
/// sequence number in the low 31 bits and the tail flag in the top bit.
/// A switch learns whether a flit releases its channel from the slot
/// itself, the way a router reads a flit's type, instead of looking the
/// worm's length up per hop.  An empty slot holds Flit{}.
class Flit {
 public:
  constexpr Flit() = default;
  constexpr Flit(std::uint32_t seq, bool tail)
      : word_(seq | (tail ? kTailBit : 0)) {
    WORMSIM_DCHECK(seq < kTailBit);
  }
  /// Position in the worm; 0 is the header.
  constexpr std::uint32_t seq() const { return word_ & ~kTailBit; }
  /// The worm's last flit: crossing a hop releases the hop's lanes.
  constexpr bool is_tail() const { return (word_ & kTailBit) != 0; }

 private:
  static constexpr std::uint32_t kTailBit = std::uint32_t{1} << 31;
  std::uint32_t word_ = 0;
};

static_assert(sizeof(Flit) == 4, "a buffer slot's flit stays one word");

/// Lifetime record of one message.  The paper treats packets and messages
/// interchangeably (no packetization), and so do we.  At saturation the
/// source queues never drain, so these records — one per message ever
/// created — are most of a large run's memory: the record is 32 bytes.
/// The injection and end (delivery or termination) cycles are 32-bit
/// offsets from creation behind accessors that return kNoCycle for an
/// event that has not happened, and the fault-only kill counts live in
/// the engine's side table (Termination).  The wormhole engine's per-flit
/// path never reads this record: each buffered Flit carries its tail
/// flag, a transmitting node keeps its message's length, and the record
/// is touched only for a worm's first and tail flit.
class PacketState {
 public:
  std::uint64_t create_cycle = 0;  ///< entered the source queue
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  /// Link of the intrusive source FIFO the packet waits in (PacketFifo).
  PacketId queue_next = kNoPacket;
  std::uint16_t length = 0;  ///< flits
  /// BMIN: FirstDifference(src, dst), where the worm turns around.
  std::uint8_t turn_stage = 0;

  /// Created inside the measurement window.
  bool measured() const { return (flags_ & kMeasured) != 0; }
  void set_measured(bool measured) {
    flags_ = static_cast<std::uint8_t>(measured ? flags_ | kMeasured
                                                : flags_ & ~kMeasured);
  }

  /// Header flit entered the network.
  bool injected() const { return inject_ != kNoOffset; }
  std::uint64_t inject_cycle() const {
    return injected() ? create_cycle + inject_ : kNoCycle;
  }
  void mark_injected(std::uint64_t cycle) { inject_ = offset(cycle); }

  /// Tail flit consumed at the destination.
  bool delivered() const { return (flags_ & kDelivered) != 0; }
  std::uint64_t deliver_cycle() const {
    return delivered() ? create_cycle + end_ : kNoCycle;
  }
  void mark_delivered(std::uint64_t cycle) {
    WORMSIM_DCHECK((flags_ & (kDelivered | kTerminated)) == 0);
    end_ = offset(cycle);
    flags_ |= kDelivered;
  }

  /// Killed by fault injection (DESIGN.md §14); never in a fault-free run.
  bool terminated() const { return (flags_ & kTerminated) != 0; }
  std::uint64_t terminate_cycle() const {
    return terminated() ? create_cycle + end_ : kNoCycle;
  }
  void mark_terminated(std::uint64_t cycle) {
    WORMSIM_DCHECK((flags_ & (kDelivered | kTerminated)) == 0);
    end_ = offset(cycle);
    flags_ |= kTerminated;
  }

 private:
  static constexpr std::uint8_t kMeasured = 1;
  static constexpr std::uint8_t kDelivered = 2;
  static constexpr std::uint8_t kTerminated = 4;
  static constexpr std::uint32_t kNoOffset = ~std::uint32_t{0};

  std::uint32_t offset(std::uint64_t cycle) const {
    WORMSIM_CHECK_MSG(cycle >= create_cycle &&
                          cycle - create_cycle < kNoOffset,
                      "packet lifetime exceeds 2^32 - 1 cycles");
    return static_cast<std::uint32_t>(cycle - create_cycle);
  }

  std::uint8_t flags_ = 0;
  std::uint32_t inject_ = kNoOffset;  ///< cycles after create_cycle
  std::uint32_t end_ = 0;  ///< delivery or termination, after create_cycle
};

static_assert(sizeof(PacketState) == 32,
              "PacketState should pack two records per cache line");

/// Fault-only accounting of one worm killed mid-flight (DESIGN.md §14),
/// kept beside the records so the fault-free record stays 32 bytes.
struct Termination {
  PacketId packet = kNoPacket;
  /// Flits the source had sent when the kill landed (= length once the
  /// tail left the source).
  std::uint32_t flits_sent_at_kill = 0;
  /// In-network flits discarded by the kill; flits_sent_at_kill minus
  /// flits already ejected.
  std::uint32_t flits_truncated = 0;
};

/// One FCFS queue of packets threaded through the packets' own
/// `queue_next` links: 12 bytes per queue, where an empty std::deque
/// already costs several hundred.  A packet waits in at most one queue at
/// a time.  Both engines keep one per node as its source queue.
struct PacketFifo {
  PacketId head = kNoPacket;
  PacketId tail = kNoPacket;
  std::uint32_t count = 0;

  bool empty() const { return count == 0; }
  std::uint32_t size() const { return count; }
  PacketId front() const { return head; }

  void push_back(std::vector<PacketState>& packets, PacketId id) {
    packets[id].queue_next = kNoPacket;
    if (count == 0) {
      head = id;
    } else {
      packets[tail].queue_next = id;
    }
    tail = id;
    ++count;
  }

  PacketId pop_front(std::vector<PacketState>& packets) {
    WORMSIM_DCHECK(count > 0);
    const PacketId id = head;
    head = packets[id].queue_next;
    if (--count == 0) tail = kNoPacket;
    return id;
  }
};

}  // namespace wormsim::sim
