#include "vcgra/vcgra/params.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace vcgra::overlay {

std::string param_signature(const ParamBinding& binding) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t length = 0;
  for (const auto& [name, value] : binding) length += name.size() + 18;
  std::string signature;
  signature.reserve(length);
  for (const auto& [name, value] : binding) {
    // Hash the double's bit pattern, not its decimal rendering: -0.0 vs
    // 0.0 and every subnormal stay distinguishable, and the signature is
    // locale/printf independent. The digits are the "%016llx" rendering,
    // written directly (this runs on every submit).
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    signature += name;
    signature += '=';
    char digits[16];
    for (int i = 15; i >= 0; --i, bits >>= 4) digits[i] = kHex[bits & 0xf];
    signature.append(digits, sizeof(digits));
    signature += ';';
  }
  return signature;
}

ParamBinding merge_params(const ParamBinding& base,
                          const ParamBinding& overrides) {
  ParamBinding merged = base;
  for (const auto& [name, value] : overrides) {
    const auto it = merged.find(name);
    if (it == merged.end()) {
      throw std::invalid_argument(
          "merge_params: override for unknown parameter '" + name + "'");
    }
    it->second = value;
  }
  return merged;
}

}  // namespace vcgra::overlay
