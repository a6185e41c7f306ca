// Link-layer addressing.
//
// Addresses are 48-bit on the wire (standard 802.11 format) but the
// simulation only ever populates the low 16 bits, derived from node ids.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace hydra::proto {

class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::uint16_t value) : value_(value) {}

  // Nodes the 16-bit address space can name: index kMaxNodes - 1 maps
  // to 0xfffe; one more would alias broadcast (0xffff), then wrap to
  // the unspecified address (0).
  static constexpr std::uint32_t kMaxNodes = 0xfffe;

  // Link address of the node with the given index (0-based, below
  // kMaxNodes).
  constexpr static MacAddress for_node(std::uint32_t node_index) {
    return MacAddress(static_cast<std::uint16_t>(node_index + 1));
  }
  constexpr static MacAddress broadcast() { return MacAddress(0xffff); }

  constexpr std::uint16_t value() const { return value_; }
  constexpr bool is_broadcast() const { return value_ == 0xffff; }
  constexpr bool is_unspecified() const { return value_ == 0; }

  friend constexpr auto operator<=>(MacAddress, MacAddress) = default;

 private:
  std::uint16_t value_ = 0;
};

inline std::string to_string(MacAddress a) {
  if (a.is_broadcast()) return "ff:ff";
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02x:%02x", a.value() >> 8,
                a.value() & 0xff);
  return buf;
}

}  // namespace hydra::proto
