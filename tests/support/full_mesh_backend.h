// The full-mesh reference delivery backend: every attached PHY hears
// every transmission, whatever the geometry. It is the paper's channel
// model taken literally, and the reference the medium's culled lists
// are compared against (trace digests in the determinism suites,
// list-for-list in medium_test). Install it with
// `medium.set_backend(std::make_unique<testsupport::FullMeshBackend>())`.
//
// Deliberately minimal: rebuild-only (every attach, detach and move
// falls back to a full rebuild through the DeliveryBackend defaults) and
// O(N²) per rebuild, so there is no incremental path here that could
// share a bug with the one under test.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "phy/medium.h"

namespace hydra::testsupport {

class FullMeshBackend final : public phy::DeliveryBackend {
 public:
  void rebuild(const std::vector<phy::Phy*>& phys,
               const phy::MediumConfig& config) override;

  const std::vector<phy::Delivery>& deliveries(
      const phy::Phy& src) const override;

 private:
  std::vector<std::vector<phy::Delivery>> lists_;
  std::map<const phy::Phy*, std::size_t> index_;
};

}  // namespace hydra::testsupport
