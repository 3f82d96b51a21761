#pragma once

/// \file scheme.hpp
/// The gradient-coding scheme interface (Section II of the paper).
///
/// A scheme fixes, for `n` workers over `m` units with computational load
/// `r`:
///   * the data placement G_1, ..., G_n (drawn once, before training);
///   * the worker-side encoding function phi_i (Eq. 9) — here `encode`;
///   * the master-side decision of when enough messages have arrived and
///     the decoding function psi (Eq. 10) — here a per-iteration
///     `Collector`.
///
/// The combinatorial questions ("has the master heard enough?", "what are
/// K and L this iteration?") are answered by the Collector from message
/// *metadata* alone, so the discrete-event simulator can drive schemes
/// without computing any real gradients; the threaded runtime additionally
/// passes payloads and calls `decode_sum`.

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "comm/message.hpp"
#include "core/gradient_source.hpp"
#include "data/placement.hpp"
#include "stats/rng.hpp"

namespace coupon::core {

/// Per-iteration master-side message collector and decoder.
///
/// Usage: call `offer` for every arriving message in arrival order until
/// `ready()` flips to true (`offer` after ready() is allowed and ignored).
/// `workers_heard()` is |W| (recovery-threshold accounting, Definition 2)
/// and `units_received()` the aggregated normalized message size
/// (communication load, Definition 3). Between iterations, `reset()`
/// returns the collector to its freshly-constructed state so one instance
/// can serve a whole run — the simulator's steady-state loop relies on
/// this instead of `Scheme::make_collector()` per iteration.
class Collector {
 public:
  virtual ~Collector() = default;

  /// Returns the collector to the state `Scheme::make_collector()` built
  /// it in: no workers heard, no units received, not ready, no kept
  /// messages. A reset-and-reused collector must behave identically to a
  /// fresh one under any offer sequence. Contract for implementers
  /// (`do_reset`): preserve allocated capacity — reset runs once per
  /// simulated iteration and must not allocate.
  void reset() {
    workers_heard_ = 0;
    units_received_ = 0.0;
    do_reset();
  }

  /// Offers the message of `worker`. `meta`/`payload` follow the owning
  /// scheme's encoding; `payload` may be empty when only combinatorial
  /// tracking is needed (simulation). Returns true if the message was
  /// *kept* (contributes to the decode), false if discarded as redundant.
  virtual bool offer(std::size_t worker, std::span<const std::int64_t> meta,
                     std::span<const double> payload) = 0;

  /// True once the full gradient is recoverable from the kept messages.
  virtual bool ready() const = 0;

  /// Number of distinct workers offered so far (|W| of Definition 2).
  std::size_t workers_heard() const { return workers_heard_; }

  /// Aggregated message size in gradient units (L of Definition 3).
  double units_received() const { return units_received_; }

  /// Writes the decoded *sum* of all unit gradients into `grad_sum`
  /// (size p). The caller divides by the number of underlying examples to
  /// obtain the mean gradient of Eq. (1). Requires ready() and that all
  /// kept offers carried payloads.
  virtual void decode_sum(std::span<double> grad_sum) const = 0;

  /// True when this collector can also decode a *partial* gradient from
  /// whatever it has collected so far: the coverage schemes (BCC, FR,
  /// simple randomized, gc_cyclic), uncoded, and SGC (whose partial
  /// decode is its unbiased estimate of the full sum). False for CR and
  /// nested GC, whose decodes are all-or-nothing.
  virtual bool supports_partial_decode() const { return false; }

  /// Writes the sum of the unit gradients covered *so far* into
  /// `grad_sum` and returns the number of units covered (possibly 0, in
  /// which case `grad_sum` is zeroed). Valid before ready(); used by the
  /// runtime's ignore-stragglers fallback, which rescales by
  /// covered/total to approximate the mean gradient. Requires
  /// supports_partial_decode() and payloads on kept offers.
  virtual std::size_t decode_partial_sum(std::span<double> grad_sum) const;

 protected:
  void note_offer(double units) {
    ++workers_heard_;
    units_received_ += units;
  }

  /// Scheme-specific part of `reset()`: drop kept messages and coverage
  /// state, keeping allocated buffers (clear vectors, don't shrink them).
  virtual void do_reset() = 0;

 private:
  std::size_t workers_heard_ = 0;
  double units_received_ = 0.0;
};

/// A configured gradient-coding scheme instance.
///
/// Construction (via `SchemeRegistry::create`) draws the placement; the
/// instance is immutable afterwards, so one scheme object can serve many
/// concurrent iterations/collectors.
class Scheme {
 public:
  virtual ~Scheme() = default;

  /// Canonical `SchemeRegistry` / CLI name ("uncoded", "bcc", "cr", ...).
  virtual std::string_view registry_name() const = 0;

  /// Human-readable name for table rendering ("BCC", "cyclic repetition").
  virtual std::string_view name() const = 0;

  std::size_t num_workers() const { return placement_.num_workers(); }
  std::size_t num_units() const { return placement_.num_examples(); }

  /// Definition 1's computational load of the realized placement.
  std::size_t computational_load() const {
    return placement_.computational_load();
  }

  /// The realized data placement G_1..G_n over units.
  const data::Placement& placement() const { return placement_; }

  /// Worker-side encoding phi_i: computes worker `i`'s message at `w`.
  /// The returned message's `meta`/`payload` are what `Collector::offer`
  /// expects; `source.num_units()` must equal num_units(). Returns a
  /// `kTagGradient` message filled by `encode_into`.
  virtual comm::Message encode(std::size_t worker,
                               const UnitGradientSource& source,
                               std::span<const double> w) const;

  /// Scratch-reusing form of `encode`: writes worker `i`'s message into
  /// `out`, reusing `out.meta`/`out.payload` capacity so a warm caller
  /// performs zero allocations. Only `meta`/`payload` are scheme-owned —
  /// routing fields (`source`, `dest`, `tag`, `iteration`) are left for
  /// the caller. Every scheme implements this; `encode` forwards here.
  virtual void encode_into(std::size_t worker, const UnitGradientSource& source,
                           std::span<const double> w,
                           comm::Message& out) const = 0;

  /// If several workers provably produce bitwise-identical messages (same
  /// meta, same payload for any `w`), returns a group id in
  /// [0, num_encode_groups()) shared exactly by those workers — e.g. all
  /// BCC workers holding the same batch, all FR workers of one block. The
  /// provider then encodes each group once per iteration and reuses the
  /// bytes. Returns nullopt (the default) when every worker's message is
  /// distinct or the scheme offers no such guarantee.
  virtual std::optional<std::size_t> encode_group(std::size_t worker) const {
    (void)worker;
    return std::nullopt;
  }

  /// Number of distinct `encode_group` ids (0 when encode_group always
  /// returns nullopt).
  virtual std::size_t num_encode_groups() const { return 0; }

  /// Size, in gradient units, of worker `i`'s message (used by the
  /// simulator for transfer-time modelling without encoding).
  virtual double message_units(std::size_t worker) const = 0;

  /// The metadata worker `i`'s message would carry (identical to
  /// `encode(i, ...).meta`). Lets the discrete-event simulator feed
  /// collectors without computing any gradients.
  virtual std::vector<std::int64_t> message_meta(std::size_t worker) const = 0;

  /// Fresh per-iteration collector.
  virtual std::unique_ptr<Collector> make_collector() const = 0;

  /// Closed-form expected recovery threshold E|W| where known
  /// (Eq. 2 for BCC, n for uncoded, m - r + 1 for CR); nullopt when only
  /// empirical estimates exist (simple randomized, FR).
  virtual std::optional<double> expected_recovery_threshold() const = 0;

  /// A provable lower bound on the number of master-side message
  /// arrivals before this scheme's collector can possibly flip ready():
  /// threshold schemes return their exact wait quota (n - r + 1 for
  /// CR/GC/SGC/nested GC), coverage schemes the count of distinct
  /// coupons that must be collected (ceil(m/r) batches for BCC, n/r
  /// blocks for FR, ceil(m/r) messages for simple randomized), and
  /// wait-for-all schemes n — the default, always safe for out-of-tree
  /// schemes. The simulator's threshold-selection kernel (DESIGN.md §7)
  /// sorts only this many earliest arrivals up front and extends the
  /// sorted prefix geometrically when recovery needs more (drops,
  /// coverage failure), so the hint is a performance contract, not a
  /// correctness one: too small costs extension rounds, too large costs
  /// wasted sorting, either way the trace is bit-identical. Enforced as
  /// a true lower bound by the registry-wide conformance suite.
  virtual std::size_t min_arrivals_hint() const { return num_workers(); }

 protected:
  explicit Scheme(data::Placement placement)
      : placement_(std::move(placement)) {}

  data::Placement placement_;
};

/// Encoder of the one-message-per-worker sum schemes (bcc, fr, uncoded,
/// sgc): meta `{id}`, payload the sum of `units`' gradients at `w`,
/// accumulated in the order given.
void encode_sum(std::size_t id, std::span<const std::size_t> units,
                const UnitGradientSource& source, std::span<const double> w,
                comm::Message& out);

/// Encoder of the per-unit schemes (simple_random, gc_cyclic): meta lists
/// `units`, payload concatenates their gradients in that order.
void encode_units(std::span<const std::size_t> units,
                  const UnitGradientSource& source, std::span<const double> w,
                  comm::Message& out);

/// The meta `encode_units` writes for `units`.
std::vector<std::int64_t> units_meta(std::span<const std::size_t> units);

/// Options shared by the `SchemeRegistry` factories.
struct SchemeConfig {
  std::size_t num_workers = 0;  ///< n
  std::size_t num_units = 0;    ///< m (units / super-examples)
  std::size_t load = 0;         ///< r, in units per worker
  /// BCC only: deterministic coverage aid (library extension, see
  /// DESIGN.md §5.3). Default matches the paper (fully random choice).
  bool bcc_seed_first_batches = false;
};

}  // namespace coupon::core
