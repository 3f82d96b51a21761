#include "comm/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "util/assert.hpp"

namespace coupon::comm {

namespace {

/// Frames above this are treated as stream corruption, not messages: the
/// largest legitimate payload (a model broadcast) is n_features doubles.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 31;

/// Writes all `n` bytes, riding out EINTR and short writes; never raises
/// SIGPIPE. False when the peer is gone.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t wrote =
        ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// Reads exactly `n` bytes. 1 = done, 0 = EOF or error (stream over).
int read_all(int fd, std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, data + done, n - done);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return 0;
    }
    if (got == 0) {
      return 0;  // EOF mid-frame: the peer is gone
    }
    done += static_cast<std::size_t>(got);
  }
  return 1;
}

/// Waits for `fd` to become readable. 1 = readable (or hung up — the
/// subsequent read observes the EOF), 0 = timeout, -1 = poll error.
int wait_readable(int fd, std::chrono::milliseconds timeout) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    return rc < 0 ? -1 : (rc == 0 ? 0 : 1);
  }
}

/// Turns off Nagle on TCP streams; a no-op on AF_UNIX (where the option
/// does not exist) — each iteration is a small latency-bound exchange.
void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int fd) {
  if (fd >= 0) {
    ::close(fd);
  }
}

}  // namespace

bool send_frame(int fd, const Message& m) {
  if (fd < 0) {
    return false;
  }
  const std::vector<std::uint8_t> wire = serialize(m);
  std::uint8_t prefix[8];
  const std::uint64_t length = wire.size();
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  return write_all(fd, prefix, sizeof(prefix)) &&
         write_all(fd, wire.data(), wire.size());
}

FrameStatus recv_frame(int fd, std::chrono::milliseconds timeout,
                       Message& out) {
  if (fd < 0) {
    return FrameStatus::kClosed;
  }
  if (timeout.count() >= 0) {
    const int ready = wait_readable(fd, timeout);
    if (ready == 0) {
      return FrameStatus::kTimeout;
    }
    if (ready < 0) {
      return FrameStatus::kClosed;
    }
  }
  std::uint8_t prefix[8];
  if (read_all(fd, prefix, sizeof(prefix)) != 1) {
    return FrameStatus::kClosed;
  }
  std::uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<std::uint64_t>(prefix[i]) << (8 * i);
  }
  if (length == 0 || length > kMaxFrameBytes) {
    return FrameStatus::kClosed;  // corrupt stream; resync is impossible
  }
  std::vector<std::uint8_t> body(static_cast<std::size_t>(length));
  if (read_all(fd, body.data(), body.size()) != 1) {
    return FrameStatus::kClosed;
  }
  return deserialize(body, out) ? FrameStatus::kMessage
                                : FrameStatus::kClosed;
}

bool make_stream_socketpair(int fds[2]) {
  return ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
}

bool socketpair_available() {
  static const bool available = [] {
    int fds[2];
    if (!make_stream_socketpair(fds)) {
      return false;
    }
    close_fd(fds[0]);
    close_fd(fds[1]);
    return true;
  }();
  return available;
}

bool tcp_loopback_available() {
  static const bool available = [] {
    auto listener = TcpListener::open();
    if (listener == nullptr) {
      return false;
    }
    const int client = tcp_connect_loopback(listener->port(),
                                            std::chrono::milliseconds(500));
    if (client < 0) {
      return false;
    }
    const int accepted =
        listener->accept_fd(std::chrono::milliseconds(500));
    close_fd(client);
    close_fd(accepted);
    return accepted >= 0;
  }();
  return available;
}

std::unique_ptr<TcpListener> TcpListener::open() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // let the kernel pick
  socklen_t addr_len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
          0) {
    close_fd(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

TcpListener::~TcpListener() { close_fd(fd_); }

int TcpListener::accept_fd(std::chrono::milliseconds timeout) {
  if (wait_readable(fd_, timeout) != 1) {
    return -1;
  }
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) {
      return fd;
    }
  }
}

int tcp_connect_loopback(std::uint16_t port,
                         std::chrono::milliseconds timeout) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    close_fd(fd);
    // The listener's backlog can briefly overflow while every worker
    // connects at once; retry until the deadline.
    if (errno != ECONNREFUSED && errno != EINTR && errno != EAGAIN) {
      return -1;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return -1;
    }
    struct timespec nap = {0, 2 * 1000 * 1000};  // 2 ms
    ::nanosleep(&nap, nullptr);
  }
}

TcpTransport::TcpTransport(std::size_t rank, std::size_t num_ranks,
                           std::vector<int> fds)
    : rank_(rank), num_ranks_(num_ranks), fds_(std::move(fds)) {}

std::unique_ptr<TcpTransport> TcpTransport::master(
    std::vector<int> worker_fds) {
  COUPON_ASSERT(!worker_fds.empty());
  const std::size_t num_ranks = worker_fds.size() + 1;
  auto transport = std::unique_ptr<TcpTransport>(
      new TcpTransport(/*rank=*/0, num_ranks, std::move(worker_fds)));
  transport->readers_.reserve(transport->fds_.size());
  for (std::size_t i = 0; i < transport->fds_.size(); ++i) {
    const int fd = transport->fds_[i];
    COUPON_ASSERT(fd >= 0);
    set_nodelay(fd);
    TcpTransport* self = transport.get();
    transport->readers_.emplace_back(
        [self, i, fd] { self->reader_loop(i + 1, fd); });
  }
  return transport;
}

std::unique_ptr<TcpTransport> TcpTransport::worker(int fd, std::size_t rank,
                                                   std::size_t num_ranks) {
  COUPON_ASSERT(fd >= 0);
  COUPON_ASSERT(rank >= 1 && rank < num_ranks);
  set_nodelay(fd);
  return std::unique_ptr<TcpTransport>(
      new TcpTransport(rank, num_ranks, std::vector<int>{fd}));
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::reader_loop(std::size_t peer_rank, int fd) {
  for (;;) {
    RecvEvent event;
    const FrameStatus status =
        recv_frame(fd, std::chrono::milliseconds(-1), event.message);
    if (status != FrameStatus::kMessage) {
      // EOF (or stream corruption): exactly one crash/leave signal, then
      // the reader retires.
      event.status = RecvStatus::kPeerClosed;
      event.peer = peer_rank;
      event.message = Message{};
      inbox_.push(std::move(event));
      return;
    }
    event.status = RecvStatus::kMessage;
    event.peer = peer_rank;
    inbox_.push(std::move(event));
  }
}

int TcpTransport::fd_for(std::size_t dest) const {
  if (rank_ == 0) {
    COUPON_ASSERT_MSG(dest >= 1 && dest < num_ranks_,
                      "master send to bad rank " << dest);
    return fds_[dest - 1];
  }
  COUPON_ASSERT_MSG(dest == 0, "workers may only send to the master");
  return fds_[0];
}

bool TcpTransport::send(Message m) {
  if (closed_) {
    return false;
  }
  m.source = static_cast<std::int32_t>(rank_);
  return send_frame(fd_for(static_cast<std::size_t>(m.dest)), m);
}

RecvEvent TcpTransport::recv() {
  return recv_for(std::chrono::milliseconds(-1));
}

RecvEvent TcpTransport::recv_for(std::chrono::milliseconds timeout) {
  RecvEvent event;
  if (closed_) {
    event.status = RecvStatus::kClosed;
    return event;
  }
  if (rank_ == 0) {
    // Master: drain the inbox the readers feed.
    const PopStatus status =
        timeout.count() < 0 ? inbox_.pop(event)
                            : inbox_.pop_for(timeout, event);
    if (status == PopStatus::kTimeout) {
      event.status = RecvStatus::kTimeout;
    } else if (status == PopStatus::kClosed) {
      event.status = RecvStatus::kClosed;
    }
    return event;
  }
  // Worker: read the master stream directly. Master EOF is terminal for
  // a worker — there is no one left to hear from.
  switch (recv_frame(fds_[0], timeout, event.message)) {
    case FrameStatus::kMessage:
      event.status = RecvStatus::kMessage;
      event.peer = 0;
      return event;
    case FrameStatus::kTimeout:
      event.status = RecvStatus::kTimeout;
      return event;
    case FrameStatus::kClosed:
      break;
  }
  event.status = RecvStatus::kClosed;
  return event;
}

void TcpTransport::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  for (int fd : fds_) {
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);  // unblocks the reader of this stream
    }
  }
  for (auto& reader : readers_) {
    reader.join();
  }
  readers_.clear();
  for (int& fd : fds_) {
    close_fd(fd);
    fd = -1;
  }
  inbox_.close();
}

}  // namespace coupon::comm
