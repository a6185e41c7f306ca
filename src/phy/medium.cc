#include "phy/medium.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_map>

#include "phy/phy.h"
#include "util/assert.h"
#include "util/pool.h"

namespace hydra::phy {

double path_loss_db(const MediumConfig& config, double distance) {
  const double d = std::max(1.0, distance);
  return config.path_loss_at_1m_db +
         10.0 * config.path_loss_exponent * std::log10(d);
}

sim::Duration propagation_delay(const MediumConfig& config, double distance) {
  const double d = std::max(1.0, distance);
  return sim::Duration::nanos(
      std::llround(d / config.propagation_speed_mps * 1e9));
}

double cull_floor_dbm(const MediumConfig& config) {
  // Clamped to the CCA threshold: anything quieter than CCA can neither
  // assert the channel nor collide nor decode, so a floor at or below it
  // culls only behaviourally inert deliveries.
  return std::min(config.noise_floor_dbm - config.cull_margin_db,
                  config.cca_threshold_dbm);
}

double reach_radius_m(const MediumConfig& config, double tx_power_dbm) {
  const double budget =
      tx_power_dbm - cull_floor_dbm(config) - config.path_loss_at_1m_db;
  if (budget <= 0.0) return 1.0;  // below the floor beyond the 1 m clamp
  // The pow branch is clamped too: the path-loss model floors distance
  // at 1 m, so a reach below that would under-size grid cells for no
  // physical reason (the documented contract is "≥ 1 m" either way).
  return std::max(1.0,
                  std::pow(10.0, budget / (10.0 * config.path_loss_exponent)));
}

namespace {

Delivery make_delivery(const MediumConfig& config, Phy& src, Phy& dst) {
  const double d =
      distance_m(src.config().position, dst.config().position);
  return Delivery{&dst, src.config().tx_power_dbm - path_loss_db(config, d),
                  propagation_delay(config, d)};
}

// Reachability-culled delivery: one precomputed list per source, keyed
// by attach order. Candidates come from a spatial grid whose cells span
// the widest reach, so every possible receiver sits in the 3×3
// neighborhood of its source's cell; receivers below the cull floor are
// skipped.
class CulledBackend final : public DeliveryBackend {
 public:
  const std::vector<Delivery>& deliveries(const Phy& src) const override {
    return lists_[index_.at(&src)];
  }

  void rebuild(const std::vector<Phy*>& phys,
               const MediumConfig& config) override {
    lists_.clear();
    lists_.resize(phys.size());
    index_.clear();
    std::vector<Position> positions;
    positions.reserve(phys.size());
    double reach = 1.0;
    for (std::size_t s = 0; s < phys.size(); ++s) {
      index_[phys[s]] = s;
      positions.push_back(phys[s]->config().position);
      reach = std::max(
          reach, reach_radius_m(config, phys[s]->config().tx_power_dbm));
    }
    grid_.build(positions, reach);
    std::vector<std::uint32_t> candidates;
    for (std::size_t s = 0; s < phys.size(); ++s) {
      compute_list(s, phys, config, candidates);
    }
  }

  bool attach_incremental(Phy& phy, const std::vector<Phy*>& phys,
                          const MediumConfig& config) override {
    // Local only when the newcomer sits inside the built grid and its
    // own reach fits one cell (so the 3×3 query stays sufficient in
    // both directions); anything else rebuilds from scratch.
    const Position p = phy.config().position;
    if (!grid_.contains(p)) return false;
    if (reach_radius_m(config, phy.config().tx_power_dbm) > grid_.cell_m()) {
      return false;
    }
    // The newcomer takes the next attach index with an empty list.
    const auto s = static_cast<std::uint32_t>(lists_.size());
    lists_.emplace_back();
    index_[&phy] = s;
    grid_.insert(p, s);
    std::vector<std::uint32_t> candidates;
    compute_list(s, phys, config, candidates);
    // Reverse direction: every in-reach existing source gains the
    // newcomer. It holds the highest attach index, so push_back keeps
    // each list attach-ordered; the power filter is the same exact cull
    // a full rebuild would apply.
    const double floor = cull_floor_dbm(config);
    grid_.neighborhood(p, [&](std::uint32_t i) {
      if (i == s) return;
      const auto delivery = make_delivery(config, *phys[i], phy);
      if (delivery.rx_power_dbm >= floor) lists_[i].push_back(delivery);
    });
    return true;
  }

  bool detach_incremental(Phy& phy, const std::vector<Phy*>& phys,
                          const MediumConfig&) override {
    // Always local: removing a node can only shrink candidate sets, and
    // erase_and_renumber keeps the grid aligned with the compacted
    // attach index space (the over-wide bounding box and cell width stay
    // valid — fewer nodes never need a larger reach).
    const auto it = index_.find(&phy);
    HYDRA_ASSERT_MSG(it != index_.end(), "detach of an unknown phy");
    const std::size_t s = it->second;
    grid_.erase_and_renumber(static_cast<std::uint32_t>(s));
    // Drop phy's own list, renumber the attach indices above it down by
    // one, and strip it from every remaining list. Relative attach order
    // is untouched, so the surviving lists stay canonically ordered
    // without recomputation. `phys` already has phy erased.
    index_.erase(it);
    lists_.erase(lists_.begin() + static_cast<std::ptrdiff_t>(s));
    // Renumber by walking the attach-order vector, not the hash map:
    // phys[i] for i >= s are exactly the survivors whose index shifted
    // down by one, and a deterministic traversal keeps this path out of
    // hydra-lint's unordered-iter rule by construction.
    for (std::size_t i = s; i < phys.size(); ++i) index_[phys[i]] = i;
    for (auto& list : lists_) {
      std::erase_if(list,
                    [&](const Delivery& d) { return d.destination == &phy; });
    }
    return true;
  }

  bool move_incremental(Phy& phy, Position old_position,
                        const std::vector<Phy*>& phys,
                        const MediumConfig& config) override {
    // Local only inside the built bounding box: neighborhood()'s 3×3
    // superset guarantee holds for clamped queries near the box but NOT
    // for far-out positions (the clamp would silently hand back a
    // boundary cell's neighbors), so those force a rebuild, which
    // re-derives the box. Reach must still fit one cell, as for attach.
    const Position p = phy.config().position;
    if (!grid_.contains(p)) return false;
    if (reach_radius_m(config, phy.config().tx_power_dbm) > grid_.cell_m()) {
      return false;
    }
    const auto s = static_cast<std::uint32_t>(index_.at(&phy));
    grid_.erase(old_position, s);
    grid_.insert(p, s);
    // The lists a from-scratch rebuild could change are exactly those of
    // sources whose 3×3 candidate set saw the old cell or sees the new
    // one; cell adjacency is symmetric, so those sources are the grid
    // neighborhoods of the two positions (the mover's own list included,
    // via the new neighborhood). Recomputing each through the same
    // compute_list path a rebuild uses makes the patch bit-identical to
    // rebuilding.
    std::vector<std::uint32_t> affected;
    grid_.neighborhood(old_position,
                       [&](std::uint32_t i) { affected.push_back(i); });
    grid_.neighborhood(p, [&](std::uint32_t i) { affected.push_back(i); });
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    std::vector<std::uint32_t> candidates;
    for (const std::uint32_t i : affected) {
      lists_[i].clear();
      compute_list(i, phys, config, candidates);
    }
    return true;
  }

 private:
  // Computes source s's delivery list: grid candidates, sorted to
  // attach order (scheduling — and therefore RNG draw — order must
  // match the full mesh exactly), culled against the floor.
  void compute_list(std::size_t s, const std::vector<Phy*>& phys,
                    const MediumConfig& config,
                    std::vector<std::uint32_t>& candidates) {
    candidates.clear();
    grid_.neighborhood(phys[s]->config().position,
                       [&](std::uint32_t i) { candidates.push_back(i); });
    std::sort(candidates.begin(), candidates.end());
    // One allocation per list instead of a doubling series: the medium
    // builds lazily at the first transmission, inside the event loop.
    lists_[s].reserve(candidates.size());
    const double floor = cull_floor_dbm(config);
    for (const std::uint32_t i : candidates) {
      if (i == s) continue;
      const auto delivery = make_delivery(config, *phys[s], *phys[i]);
      if (delivery.rx_power_dbm >= floor) lists_[s].push_back(delivery);
    }
  }

  std::vector<std::vector<Delivery>> lists_;
  // Pointer-hashed: the per-transmission src -> attach-index lookup is
  // on the hot path this layer exists to keep O(1).
  std::unordered_map<const Phy*, std::size_t> index_;  // hydra-lint: allow(unordered-member) — at/find/erase lookups plus the attach-order renumber walk in detach_incremental; never iterated in hash order
  SpatialGrid grid_;
};

}  // namespace

std::unique_ptr<DeliveryBackend> make_delivery_backend() {
  return std::make_unique<CulledBackend>();
}

Medium::Medium(sim::Simulation& simulation, MediumConfig config,
               ErrorModel error_model)
    : sim_(simulation), config_(config), error_model_(error_model) {}

Medium::~Medium() = default;

void Medium::attach(Phy& phy) {
  // attached_ is true exactly while the PHY sits in phys_.
  HYDRA_ASSERT_MSG(!phy.attached_, "phy attached twice");
  phys_.push_back(&phy);
  phy.attached_ = true;
  if (backend_ && !backend_dirty_ &&
      backend_->attach_incremental(phy, phys_, config_)) {
    ++incremental_attaches_;
    return;
  }
  backend_dirty_ = true;
}

bool Medium::detach(Phy& phy) {
  const auto it = std::find(phys_.begin(), phys_.end(), &phy);
  if (it == phys_.end()) return false;
  cancel_pending_rx(phy);
  phy.abort_receptions();
  phy.attached_ = false;
  phys_.erase(it);
  ++detaches_;
  if (backend_ && !backend_dirty_ &&
      backend_->detach_incremental(phy, phys_, config_)) {
    ++incremental_detaches_;
  } else {
    backend_dirty_ = true;
  }
  return true;
}

void Medium::move_node(Phy& phy, Position position) {
  const Position old = phy.config_.position;
  phy.config_.position = position;
  if (!phy.attached_) return;  // takes effect when the PHY re-attaches
  ++moves_;
  if (backend_ && !backend_dirty_ &&
      backend_->move_incremental(phy, old, phys_, config_)) {
    ++incremental_moves_;
    return;
  }
  backend_dirty_ = true;
}

void Medium::cancel_pending_rx(Phy& phy) {
  for (const auto id : phy.pending_rx_events_) sim_.scheduler().cancel(id);
  phy.pending_rx_events_.clear();
}

void Medium::on_phy_destroyed(Phy& phy) {
  const auto it = std::find(phys_.begin(), phys_.end(), &phy);
  // Already detach()ed explicitly: the pending events were cancelled
  // then, and a detached PHY accrues no new ones.
  if (it == phys_.end()) return;
  cancel_pending_rx(phy);
  phys_.erase(it);
  backend_dirty_ = true;
}

void Medium::set_backend(std::unique_ptr<DeliveryBackend> backend) {
  HYDRA_ASSERT_MSG(backend != nullptr, "null delivery backend");
  backend_ = std::move(backend);
  backend_dirty_ = true;
}

const DeliveryBackend& Medium::backend() {
  ensure_backend();
  return *backend_;
}

void Medium::ensure_backend() {
  if (!backend_) backend_ = make_delivery_backend();
  if (backend_dirty_) {
    backend_->rebuild(phys_, config_);
    backend_dirty_ = false;
    ++rebuilds_;
  }
}

double Medium::rx_power_dbm(const Phy& src, const Phy& dst) const {
  const double d =
      distance_m(src.config().position, dst.config().position);
  return src.config().tx_power_dbm - path_loss_db(config_, d);
}

double Medium::snr_db(const Phy& src, const Phy& dst) const {
  return rx_power_dbm(src, dst) - config_.noise_floor_dbm;
}

sim::Duration Medium::start_transmission(Phy& src, PhyFrame frame) {
  const auto timing =
      frame_timing(frame.broadcast, frame.unicast, src.config().timings);
  // A detached radio still burns airtime — the MAC's timing machinery
  // keeps running — but reaches nobody.
  if (!src.attached_) return timing.total;
  ensure_backend();
  // Pooled: a Transmission and its control block recycle through the
  // allocating thread's shard when the last delivery drops its ref.
  auto tx = util::make_pooled<Transmission>();
  tx->id = next_tx_id_++;
  tx->source = &src;
  tx->frame = std::move(frame);
  tx->timing = timing;
  tx->start = sim_.now();

  const auto& deliveries = backend_->deliveries(src);
  deliveries_scheduled_ += deliveries.size();
  // The whole fan-out commits as one batch: rx_start/rx_end pairs in
  // delivery-list (canonical attach) order, exactly the sequence — and
  // sequence numbers — that per-delivery schedule_in calls would have
  // produced.
  const auto now = sim_.now();
  batch_.clear();
  batch_.reserve(2 * deliveries.size());
  for (const Delivery& delivery : deliveries) {
    Phy* dst = delivery.destination;
    const double power = delivery.rx_power_dbm;
    batch_.push_back({now + delivery.propagation,
                      [dst, tx, power] { dst->rx_start(tx, power); }});
    batch_.push_back({now + delivery.propagation + timing.total,
                      [dst, tx, power] { dst->rx_end(tx, power); }});
  }
  batch_ids_.clear();
  sim_.scheduler().schedule_batch(batch_, &batch_ids_);
  // Hand each receiver the ids of its rx pair so detach() can cancel
  // in-flight deliveries (cancelling an id whose event already ran is a
  // no-op). Ids whose events already ran are compacted out only when a
  // push would outgrow the vector, and a compaction that frees less
  // than half of it doubles it: the vector stays within a small
  // multiple of the receiver's in-flight high-water mark, at amortized
  // O(1) pending() probes per push instead of one per held id per
  // transmission.
  auto& scheduler = sim_.scheduler();
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    auto& pend = deliveries[i].destination->pending_rx_events_;
    if (pend.size() + 2 > pend.capacity()) {
      std::erase_if(pend,
                    [&](sim::EventId id) { return !scheduler.pending(id); });
      if (2 * pend.size() > pend.capacity()) {
        pend.reserve(2 * pend.capacity());
      }
    }
    pend.push_back(batch_ids_[2 * i]);
    pend.push_back(batch_ids_[2 * i + 1]);
  }
  return timing.total;
}

}  // namespace hydra::phy
