#pragma once

/// \file tcp_transport.hpp
/// Stream-socket `Transport` for the multi-process runtime (DESIGN.md §9).
///
/// Wire format: each message travels as one length-prefixed frame,
/// `[u64 length, little-endian][serialize(Message)]` — the explicit
/// prefix is what lets a byte stream be cut back into the exact-size
/// buffers `deserialize` demands. Both loopback TCP connections and
/// AF_UNIX stream socketpairs carry the identical framing, so sandboxes
/// that forbid binding a listening socket fall back to socketpairs
/// created before fork() with no protocol change.
///
/// Crash detection is the kernel's: when a worker process dies (SIGKILL
/// included), its socket closes and the master's reader observes EOF —
/// surfaced as one `RecvStatus::kPeerClosed` event for that rank, kept
/// distinct from `kTimeout` (peer slow) and `kClosed` (endpoint shut
/// down by its owner).

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "comm/queue.hpp"
#include "comm/transport.hpp"

namespace coupon::comm {

/// True when this sandbox can create (and connect over) loopback TCP
/// sockets. Probed once.
bool tcp_loopback_available();

/// True when AF_UNIX stream socketpairs can be created. Probed once.
bool socketpair_available();

/// Creates a connected AF_UNIX stream pair with SIGPIPE-free semantics;
/// false when the sandbox forbids it.
bool make_stream_socketpair(int fds[2]);

/// Writes one length-prefixed frame to `fd`. Returns false when the peer
/// is gone (EPIPE/ECONNRESET) or the fd is invalid; never raises SIGPIPE.
bool send_frame(int fd, const Message& m);

/// Outcome of a frame read, mirroring PopStatus for a byte stream.
enum class FrameStatus {
  kMessage,  ///< a complete, well-formed frame was read into `out`
  kTimeout,  ///< the deadline passed before the frame started
  kClosed,   ///< EOF, a malformed frame, or a read error — terminal
};

/// Reads one frame from `fd`. A negative `timeout` blocks indefinitely;
/// otherwise the deadline applies to the frame's first byte (a started
/// frame is always read to completion). Malformed input (oversized
/// length, bytes `deserialize` rejects) is terminal: the stream offset
/// can no longer be trusted.
FrameStatus recv_frame(int fd, std::chrono::milliseconds timeout,
                       Message& out);

/// A loopback TCP listener on an ephemeral port, for collecting worker
/// connections at cluster start.
class TcpListener {
 public:
  /// Binds 127.0.0.1:0 and listens; nullptr when the sandbox forbids it.
  static std::unique_ptr<TcpListener> open();

  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The ephemeral port the kernel assigned.
  std::uint16_t port() const { return port_; }

  /// Accepts one connection; -1 on timeout or error.
  int accept_fd(std::chrono::milliseconds timeout);

  /// The listening socket, for closing in forked children.
  int fd() const { return fd_; }

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_;
  std::uint16_t port_;
};

/// Connects to 127.0.0.1:`port`; -1 on failure within `timeout`.
int tcp_connect_loopback(std::uint16_t port,
                         std::chrono::milliseconds timeout);

/// Stream-socket `Transport` endpoint. Two shapes share the class:
///
///  - `master()` owns one connected stream per worker and a reader
///    thread per stream; readers funnel frames (and EOFs, as
///    kPeerClosed) into one inbox the master's `recv` drains.
///  - `worker()` owns the single stream to the master and reads it
///    directly — no threads; master EOF surfaces as kClosed.
class TcpTransport final : public Transport {
 public:
  /// Master endpoint (rank 0). `worker_fds[i]` is the connected stream
  /// to worker rank i+1; the transport takes ownership of every fd.
  static std::unique_ptr<TcpTransport> master(std::vector<int> worker_fds);

  /// Worker endpoint over the single stream to the master. Takes
  /// ownership of `fd`.
  static std::unique_ptr<TcpTransport> worker(int fd, std::size_t rank,
                                              std::size_t num_ranks);

  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::size_t rank() const override { return rank_; }
  std::size_t num_ranks() const override { return num_ranks_; }
  bool send(Message m) override;
  RecvEvent recv() override;
  RecvEvent recv_for(std::chrono::milliseconds timeout) override;
  void close() override;

 private:
  TcpTransport(std::size_t rank, std::size_t num_ranks,
               std::vector<int> fds);

  /// Reader-thread body for one master-side stream: frames -> inbox,
  /// EOF -> one kPeerClosed event.
  void reader_loop(std::size_t peer_rank, int fd);

  /// Stream to `dest`: fds_[0] on a worker, fds_[dest-1] on the master.
  int fd_for(std::size_t dest) const;

  std::size_t rank_;
  std::size_t num_ranks_;
  std::vector<int> fds_;
  std::vector<std::thread> readers_;          // master only
  BlockingQueue<RecvEvent> inbox_;            // master only
  bool closed_ = false;
};

}  // namespace coupon::comm
