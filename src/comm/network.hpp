#pragma once

/// \file network.hpp
/// In-process rank-addressed message-passing fabric.
///
/// This substitutes for MPI in the threaded runtime: every participant
/// (rank 0 = master, ranks 1..n = workers) owns a mailbox and `send`
/// routes a message to the destination mailbox. Receiving goes through
/// the rank's `InProcessTransport` endpoint (comm/transport.hpp), the
/// one receive API of both live runtimes. Messages round-trip through
/// byte serialization so the code path exercised is the same one a
/// socket transport would use.

#include <memory>
#include <vector>

#include "comm/message.hpp"
#include "comm/queue.hpp"

namespace coupon::comm {

/// A fixed-size set of mailboxes with reliable in-order unicast delivery.
///
/// Thread safety: any thread may send to any rank; a rank's mailbox is
/// drained by that rank's owning thread through its endpoint (the usual
/// MPI discipline).
class InProcNetwork {
 public:
  /// Creates `num_ranks` mailboxes (rank ids 0 .. num_ranks-1).
  explicit InProcNetwork(std::size_t num_ranks);

  std::size_t num_ranks() const { return mailboxes_.size(); }

  /// Routes `m` to `m.dest`. `m.source` must be a valid rank. Serializes
  /// and deserializes the message to exercise the wire path. Returns false
  /// if the destination mailbox is closed.
  bool send(Message m);

  /// Closes one mailbox (wakes its blocked receiver).
  void close_rank(std::size_t rank);

  /// Closes all mailboxes.
  void close_all();

 private:
  friend class InProcessTransport;  // drains its own rank's mailbox

  BlockingQueue<Message>& mailbox(std::size_t rank);

  std::vector<std::unique_ptr<BlockingQueue<Message>>> mailboxes_;
};

}  // namespace coupon::comm
