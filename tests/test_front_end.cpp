// Allocation guard for the service front end: a repeated submit() of one
// request reuses its interned keys instead of rebuilding them. The global
// operator new is replaced here with a counting one, which is why this
// test lives in a binary of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <new>
#include <vector>

#include "vcgra/common/rng.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"

namespace {

// Counts the calling thread's allocations while `counting` is set; other
// threads (the workers) never count.
thread_local bool counting = false;
thread_local std::size_t allocations = 0;

}  // namespace

// All out of line, so the compiler never sees an inlined malloc() meet
// operator delete, or operator new meet an inlined free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rt = vcgra::runtime;
namespace hpc = vcgra::hpc;

namespace {

/// A 256-row, 8-tap GEMV tile: the kernel text is one per tap width and
/// the coefficients ride along as params, like the tiles of a GEMM.
hpc::HpcKernel eight_tap_tile() {
  vcgra::common::Rng rng(8);
  const auto random_row = [&rng]() {
    std::vector<double> row(8);
    for (double& v : row) v = rng.next_double() * 2.0 - 1.0;
    return row;
  };
  std::vector<std::vector<double>> rows(256);
  for (auto& row : rows) row = random_row();
  return hpc::make_gemv_tile(rows, random_row());
}

rt::JobRequest tile_request(const hpc::HpcKernel& tile) {
  rt::JobRequest request;
  request.kernel_text = tile.kernel_text;
  request.params = tile.params;
  request.inputs = tile.inputs;
  return request;
}

}  // namespace

TEST(FrontEndAllocations, RepeatedSubmitOfOneTileAllocatesAtMostFive) {
  rt::ServiceOptions options;
  options.threads = 1;
  rt::OverlayService service(options);
  const hpc::HpcKernel tile = eight_tap_tile();

  // The first sight parses, interns and compiles; the repeats after it
  // also let the service's queues reach their steady size.
  for (int i = 0; i < 8; ++i) service.submit(tile_request(tile)).get();

  std::vector<std::size_t> counts;
  for (int i = 0; i < 32; ++i) {
    rt::JobRequest request = tile_request(tile);
    allocations = 0;
    counting = true;
    std::future<rt::JobResult> future = service.submit(std::move(request));
    counting = false;
    counts.push_back(allocations);
    EXPECT_FALSE(future.get().run.outputs.at("y").empty());
  }
  const std::size_t most = *std::max_element(counts.begin(), counts.end());
  std::sort(counts.begin(), counts.end());
  std::printf("allocations per repeated submit(): median %zu, max %zu\n",
              counts[counts.size() / 2], most);
  EXPECT_LE(most, 5u);
}
