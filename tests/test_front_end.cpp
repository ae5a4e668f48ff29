// Allocation guards for the service front end: a repeated submit() of one
// request reuses its interned keys instead of rebuilding them, and a
// request's blocks are freed on the thread that submitted it, not on a
// worker. The global operator new and delete are replaced here with
// counting and tagging ones, which is why these tests live in a binary of
// their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <new>
#include <set>
#include <vector>

#include "vcgra/common/rng.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"

namespace {

// Counts the calling thread's allocations while `counting` is set; other
// threads (the workers) never count.
thread_local bool counting = false;
thread_local std::size_t allocations = 0;

// The blocks the calling thread allocates while `tag` is >= 0, by address
// (open addressing, linear probes), each with the tag it was made under.
// Only the submitting test thread inserts; any thread's free removes its
// block, and a free on a thread other than the submitter's is counted.
constexpr std::size_t kTableBits = 15;
constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;
void* const kRemoved = reinterpret_cast<void*>(std::uintptr_t{1});
std::atomic<void*> tagged[kTableSize];
std::atomic<int> tags[kTableSize];
thread_local int tag = -1;
thread_local bool submitter = false;
std::atomic<std::size_t> foreign_frees{0};

std::size_t home_slot(const void* p) {
  return static_cast<std::size_t>(
      (reinterpret_cast<std::uintptr_t>(p) >> 4) * 0x9E3779B97F4A7C15ULL >>
      (64 - kTableBits));
}

void remember(void* p, int owner) {
  for (std::size_t i = home_slot(p);; i = (i + 1) % kTableSize) {
    void* slot = tagged[i].load();
    if (slot != nullptr && slot != kRemoved) continue;
    tags[i].store(owner);
    if (tagged[i].compare_exchange_strong(slot, p)) return;
  }
}

void forget(void* p) {
  for (std::size_t i = home_slot(p);; i = (i + 1) % kTableSize) {
    void* slot = tagged[i].load();
    if (slot == nullptr) return;
    if (slot == p && tagged[i].compare_exchange_strong(slot, kRemoved)) {
      if (!submitter) foreign_frees.fetch_add(1);
      return;
    }
  }
}

/// The tags that still own a live block; only meaningful while no other
/// thread allocates or frees a tagged block.
std::set<int> live_tags() {
  std::set<int> live;
  for (std::size_t i = 0; i < kTableSize; ++i) {
    void* slot = tagged[i].load();
    if (slot != nullptr && slot != kRemoved) live.insert(tags[i].load());
  }
  return live;
}

}  // namespace

// All out of line, so the compiler never sees an inlined malloc() meet
// operator delete, or operator new meet an inlined free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    if (tag >= 0) remember(p, tag);
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) forget(p);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) forget(p);
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

// The ownership rule of the spent list: a worker parks each job it
// finished, up to 2 x threads of them, and the next submit() frees them
// (or reuses one) on its own thread. So with no more jobs in the service
// than that bound, no worker frees a block of a request (its kernel text,
// params, input vectors and map nodes); and past the bound, the workers
// free what the list cannot hold, so it never holds more.
TEST(SpentJobOwnership, RequestBlocksAreFreedOnTheSubmittingThread) {
  rt::ServiceOptions options;
  options.threads = 2;
  constexpr std::size_t kBound = 4;  // 2 parked jobs per worker thread
  rt::OverlayService service(options);
  const hpc::HpcKernel tile = eight_tap_tile();
  for (int i = 0; i < 8; ++i) service.submit(tile_request(tile)).get();
  service.wait_idle();

  // Start from an empty table (--gtest_repeat runs this more than once).
  for (std::size_t i = 0; i < kTableSize; ++i) tagged[i].store(nullptr);
  foreign_frees.store(0);
  submitter = true;
  int next_tag = 0;
  const auto tagged_request = [&]() {
    tag = next_tag++;
    rt::JobRequest request = tile_request(tile);
    tag = -1;
    return request;
  };

  // Waves of kBound jobs in flight, read, then drained: each wave's first
  // submit() takes the jobs the last wave left parked.
  for (int wave = 0; wave < 16; ++wave) {
    std::vector<std::future<rt::JobResult>> futures;
    for (std::size_t k = 0; k < kBound; ++k) {
      futures.push_back(service.submit(tagged_request()));
    }
    for (std::future<rt::JobResult>& future : futures) {
      EXPECT_FALSE(future.get().run.outputs.at("y").empty());
    }
    service.wait_idle();
    // What is left of the requests is exactly the parked jobs.
    const std::size_t parked = live_tags().size();
    EXPECT_GE(parked, 1u) << "wave " << wave << " parked nothing";
    EXPECT_LE(parked, kBound) << "wave " << wave;
  }
  EXPECT_EQ(foreign_frees.load(), 0u)
      << "a worker freed blocks the submitting thread allocated";

  // Three times the bound queued behind held workers, then drained: the
  // list fills to its bound and the workers free the rest.
  std::vector<std::future<rt::JobResult>> futures;
  {
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::vector<std::future<void>> plugs;
    for (int t = 0; t < options.threads; ++t) {
      plugs.push_back(service.submit_task([gate] { gate.wait(); }));
    }
    for (std::size_t k = 0; k < 3 * kBound; ++k) {
      futures.push_back(service.submit(tagged_request()));
    }
    release.set_value();
    for (std::future<void>& plug : plugs) plug.get();
  }
  for (std::future<rt::JobResult>& future : futures) {
    EXPECT_FALSE(future.get().run.outputs.at("y").empty());
  }
  service.wait_idle();
  EXPECT_EQ(live_tags().size(), kBound);
  EXPECT_GT(foreign_frees.load(), 0u);
  submitter = false;
}
