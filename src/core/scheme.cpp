#include "core/scheme.hpp"

#include "util/assert.hpp"

namespace coupon::core {

std::size_t Collector::decode_partial_sum(std::span<double>) const {
  COUPON_ASSERT_MSG(false,
                    "this collector does not support partial decoding");
  return 0;
}

comm::Message Scheme::encode(std::size_t worker,
                             const UnitGradientSource& source,
                             std::span<const double> w) const {
  comm::Message msg;
  msg.tag = comm::kTagGradient;
  encode_into(worker, source, w, msg);
  return msg;
}

void encode_sum(std::size_t id, std::span<const std::size_t> units,
                const UnitGradientSource& source, std::span<const double> w,
                comm::Message& out) {
  out.meta.assign(1, static_cast<std::int64_t>(id));
  out.payload.assign(source.dim(), 0.0);
  source.accumulate_units_gradient(units, w, out.payload);
}

void encode_units(std::span<const std::size_t> units,
                  const UnitGradientSource& source, std::span<const double> w,
                  comm::Message& out) {
  const std::size_t dim = source.dim();
  out.meta.assign(units.begin(), units.end());
  out.payload.assign(units.size() * dim, 0.0);
  for (std::size_t k = 0; k < units.size(); ++k) {
    source.unit_gradient(units[k], w,
                         std::span<double>(out.payload).subspan(k * dim, dim));
  }
}

std::vector<std::int64_t> units_meta(std::span<const std::size_t> units) {
  return std::vector<std::int64_t>(units.begin(), units.end());
}

}  // namespace coupon::core
