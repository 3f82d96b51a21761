#pragma once

/// \file message.hpp
/// Typed message exchanged between master and workers.
///
/// Mirrors the shape of the paper's MPI traffic: the master broadcasts the
/// current model (payload = w_t), workers reply with encoded gradients
/// (payload = z_i, meta = scheme-specific identifiers such as the batch
/// index a BCC worker processed).

#include <cstdint>
#include <vector>

namespace coupon::comm {

/// Well-known tags used by the distributed-GD runtime. User code may use
/// any other non-negative value.
enum MessageTag : std::int32_t {
  kTagModelBroadcast = 1,  ///< master -> worker: current weight vector
  kTagGradient = 2,        ///< worker -> master: encoded gradient message
  kTagShutdown = 3,        ///< master -> worker: terminate worker loop
  kTagHello = 4,           ///< worker -> master: rank announcement on a
                           ///< fresh TCP connection (meta = {rank})
};

/// One routed message. `payload` carries dense numeric data; `meta` carries
/// small scheme-specific integers (batch id, example indices, ...).
struct Message {
  std::int32_t source = -1;
  std::int32_t dest = -1;
  std::int32_t tag = 0;
  std::int64_t iteration = -1;
  std::vector<std::int64_t> meta;
  std::vector<double> payload;

  bool operator==(const Message& other) const = default;

  /// Wire size in bytes if serialized (header + meta + payload).
  std::size_t wire_size() const;
};

/// Serializes `m` into a portable little-endian byte buffer.
std::vector<std::uint8_t> serialize(const Message& m);

/// Parses a buffer produced by `serialize`. Returns false on malformed
/// input (short buffer, bad magic, truncated arrays) without touching `out`.
bool deserialize(const std::vector<std::uint8_t>& bytes, Message& out);

}  // namespace coupon::comm
