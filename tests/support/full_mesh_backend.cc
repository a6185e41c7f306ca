#include "support/full_mesh_backend.h"

#include "phy/phy.h"

namespace hydra::testsupport {

void FullMeshBackend::rebuild(const std::vector<phy::Phy*>& phys,
                              const phy::MediumConfig& config) {
  lists_.assign(phys.size(), {});
  index_.clear();
  for (std::size_t s = 0; s < phys.size(); ++s) {
    index_[phys[s]] = s;
    const phy::Phy& src = *phys[s];
    // Every other PHY, in attach order, with the same per-pair
    // arithmetic the medium uses — so where everyone is in reach the
    // lists are bit-equal to the culled ones.
    for (phy::Phy* dst : phys) {
      if (dst == &src) continue;
      const double d =
          phy::distance_m(src.config().position, dst->config().position);
      lists_[s].push_back({dst,
                           src.config().tx_power_dbm -
                               phy::path_loss_db(config, d),
                           phy::propagation_delay(config, d)});
    }
  }
}

const std::vector<phy::Delivery>& FullMeshBackend::deliveries(
    const phy::Phy& src) const {
  return lists_[index_.at(&src)];
}

}  // namespace hydra::testsupport
