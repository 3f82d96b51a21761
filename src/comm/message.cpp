#include "comm/message.hpp"

#include <cstring>

namespace coupon::comm {

namespace {

constexpr std::uint32_t kMagic = 0xBCCC0DE5u;

template <typename T>
void append_raw(std::vector<std::uint8_t>& buf, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  // resize + memcpy instead of insert(pointer range): GCC 12 -O3 flags the
  // insert form with a spurious -Wstringop-overflow.
  const std::size_t old_size = buf.size();
  buf.resize(old_size + sizeof(T));
  std::memcpy(buf.data() + old_size, &value, sizeof(T));
}

template <typename T>
bool read_raw(const std::vector<std::uint8_t>& buf, std::size_t& pos,
              T& value) {
  if (pos + sizeof(T) > buf.size()) {
    return false;
  }
  std::memcpy(&value, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

std::size_t Message::wire_size() const {
  return sizeof(std::uint32_t)                 // magic
         + 3 * sizeof(std::int32_t)            // source, dest, tag
         + sizeof(std::int64_t)                // iteration
         + 2 * sizeof(std::uint64_t)           // array lengths
         + meta.size() * sizeof(std::int64_t)  //
         + payload.size() * sizeof(double);
}

std::vector<std::uint8_t> serialize(const Message& m) {
  std::vector<std::uint8_t> buf;
  buf.reserve(m.wire_size());
  append_raw(buf, kMagic);
  append_raw(buf, m.source);
  append_raw(buf, m.dest);
  append_raw(buf, m.tag);
  append_raw(buf, m.iteration);
  append_raw(buf, static_cast<std::uint64_t>(m.meta.size()));
  append_raw(buf, static_cast<std::uint64_t>(m.payload.size()));
  for (std::int64_t v : m.meta) {
    append_raw(buf, v);
  }
  for (double v : m.payload) {
    append_raw(buf, v);
  }
  return buf;
}

bool deserialize(const std::vector<std::uint8_t>& bytes, Message& out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  Message m;
  std::uint64_t meta_len = 0;
  std::uint64_t payload_len = 0;
  if (!read_raw(bytes, pos, magic) || magic != kMagic ||
      !read_raw(bytes, pos, m.source) || !read_raw(bytes, pos, m.dest) ||
      !read_raw(bytes, pos, m.tag) || !read_raw(bytes, pos, m.iteration) ||
      !read_raw(bytes, pos, meta_len) || !read_raw(bytes, pos, payload_len)) {
    return false;
  }
  // Reject length prefixes that do not exactly fill the rest of the
  // buffer before resizing. Each length is bounded by the remaining bytes
  // before it is multiplied, so a huge prefix cannot wrap the product.
  const std::size_t remaining = bytes.size() - pos;
  if (meta_len > remaining / sizeof(std::int64_t)) {
    return false;
  }
  const std::size_t payload_bytes = remaining - meta_len * sizeof(std::int64_t);
  if (payload_len > payload_bytes / sizeof(double) ||
      payload_len * sizeof(double) != payload_bytes) {
    return false;
  }
  m.meta.resize(meta_len);
  for (auto& v : m.meta) {
    if (!read_raw(bytes, pos, v)) {
      return false;
    }
  }
  m.payload.resize(payload_len);
  for (auto& v : m.payload) {
    if (!read_raw(bytes, pos, v)) {
      return false;
    }
  }
  out = std::move(m);
  return true;
}

}  // namespace coupon::comm
