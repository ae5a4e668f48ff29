// Helpers shared by the service's job path (service.cpp) and its graph
// and session layer (graph.cpp): the stream-name boundary and the
// instance lease. Cached artifacts carry canonical (alpha-renamed) signal
// names so isomorphic kernels share them; requests use the kernel's real
// names.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "vcgra/runtime/reconfig_scheduler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/exec_plan.hpp"

namespace vcgra::runtime::detail {

/// Releases an acquired instance on every exit path of the work run on it
/// (a job batch, a graph stage group).
class InstanceLease {
 public:
  InstanceLease(ReconfigScheduler& scheduler, int instance)
      : scheduler_(scheduler), instance_(instance) {}
  ~InstanceLease() { scheduler_.release(instance_); }
  InstanceLease(const InstanceLease&) = delete;
  InstanceLease& operator=(const InstanceLease&) = delete;

 private:
  ReconfigScheduler& scheduler_;
  int instance_;
};

inline overlay::BatchStream stream_view(const std::vector<double>& stream) {
  return {nullptr, stream.data(), stream.size()};
}
inline overlay::BatchStream stream_view(const std::vector<std::uint64_t>& stream) {
  return {stream.data(), nullptr, stream.size()};
}

/// Add `streams` to `in` under their canonical names, as views borrowing
/// the caller's storage. A stray name colliding with another stream's
/// canonical name fails loudly instead of clobbering real data.
template <typename StreamMap>
void add_canonical_streams(const overlay::ParsedKernel& parsed,
                           const StreamMap& streams,
                           overlay::BatchInputs& in) {
  const bool canonical = parsed.names_are_canonical;
  for (const auto& [name, stream] : streams) {
    const std::string& key = canonical ? name : parsed.canonical_name(name);
    if (!in.emplace(key, stream_view(stream)).second) {
      throw std::invalid_argument(
          "input stream '" + name +
          "' collides with another stream after canonicalization");
    }
  }
}

/// A job's or graph stage's streams keyed by canonical name. Throws, in
/// this order, on a name that collides with another stream's after
/// canonicalization (doubles, then raw bits) and on a stream given in
/// both encodings.
inline overlay::BatchInputs canonical_streams(
    const overlay::ParsedKernel& parsed,
    const std::map<std::string, std::vector<double>>& inputs,
    const std::map<std::string, std::vector<std::uint64_t>>& input_bits) {
  overlay::BatchInputs named;
  overlay::BatchInputs bits;
  add_canonical_streams(parsed, inputs, named);
  add_canonical_streams(parsed, input_bits, bits);
  for (const auto& [name, stream] : bits) {
    if (!named.emplace(name, stream).second) {
      throw std::invalid_argument("input stream '" + name +
                                  "' provided as both doubles and raw bits");
    }
  }
  return named;
}

/// Canonical -> real output-name translation, for both the FpValue and
/// the raw-bits output maps (identity for kernels already written in
/// canonical names). Defined in service.cpp.
void translate_outputs(const overlay::ParsedKernel& parsed,
                       overlay::RunResult& run);

}  // namespace vcgra::runtime::detail
