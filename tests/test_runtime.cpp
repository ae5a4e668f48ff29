#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include <unistd.h>

#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/common/timer.hpp"
#include "vcgra/runtime/executor_pool.hpp"
#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/runtime/reconfig_scheduler.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/runtime/stats.hpp"
#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/store/overlay_store.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace rt = vcgra::runtime;
namespace ov = vcgra::overlay;
namespace vc = vcgra::common;

namespace {

/// 2-tap dot product y = a*x0 + b*x1 in the kernel language.
std::string dot2_kernel(double a, double b) {
  return vc::strprintf(
      "input x0; input x1;\n"
      "param c0 = %.17g; param c1 = %.17g;\n"
      "t0 = mul(x0, c0); t1 = mul(x1, c1);\n"
      "y = add(t0, t1);\n"
      "output y;\n",
      a, b);
}

std::map<std::string, std::vector<double>> ramp_inputs(std::size_t length,
                                                       double scale = 1.0) {
  std::map<std::string, std::vector<double>> inputs;
  for (const char* name : {"x0", "x1"}) {
    std::vector<double> stream;
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      stream.push_back(scale * (static_cast<double>(i) - 7.5) / 3.0);
    }
    inputs[name] = std::move(stream);
    scale = -scale;  // make x1 differ from x0
  }
  return inputs;
}

std::vector<std::uint64_t> output_bits(const ov::RunResult& run,
                                       const std::string& name = "y") {
  std::vector<std::uint64_t> bits;
  const auto it = run.outputs.find(name);
  if (it == run.outputs.end()) return bits;
  bits.reserve(it->second.size());
  for (const auto& value : it->second) bits.push_back(value.bits());
  return bits;
}

/// Structurally distinct kernels: the mac accumulation length programs
/// the PE's iteration counter, so it is part of the canonical structural
/// text (unlike the coefficient, which is a parameter).
std::string mac_kernel(int count, double coeff = 0.5) {
  return vc::strprintf(
      "input x;\nparam c = %.17g;\ny = mac(x, c, %d);\noutput y;\n", coeff,
      count);
}

std::map<std::string, std::vector<double>> single_input(std::size_t length,
                                                        double scale = 1.0) {
  std::map<std::string, std::vector<double>> inputs;
  std::vector<double>& stream = inputs["x"];
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(scale * (static_cast<double>(i) - 7.5) / 3.0);
  }
  return inputs;
}

}  // namespace

TEST(OverlayKey, DistinguishesKernelArchAndSeed) {
  const ov::OverlayArch arch;
  ov::OverlayArch wide = arch;
  wide.cols = 6;
  const std::string kernel = dot2_kernel(0.5, -1.25);
  const std::string other = dot2_kernel(0.5, -1.5);
  EXPECT_EQ(rt::overlay_key(kernel, arch, 1), rt::overlay_key(kernel, arch, 1));
  EXPECT_NE(rt::overlay_key(kernel, arch, 1), rt::overlay_key(other, arch, 1));
  EXPECT_NE(rt::overlay_key(kernel, arch, 1), rt::overlay_key(kernel, wide, 1));
  EXPECT_NE(rt::overlay_key(kernel, arch, 1), rt::overlay_key(kernel, arch, 2));
}

TEST(OverlayKey, CanonicalizationIgnoresFormattingAndComments) {
  const ov::OverlayArch arch;
  const std::string kernel = dot2_kernel(0.5, -1.25);
  // Same program, hostile formatting: extra whitespace, comments, blank
  // lines, statements split across lines.
  const std::string reformatted =
      "# a dot product\n"
      "  input   x0 ;\n\n"
      "input x1;\n"
      "param c0 = 0.5;  # coefficient\n"
      "param c1 = -1.25;\n"
      "t0 =  mul( x0 , c0 ) ;  t1 = mul(x1, c1);\n"
      "y = add(t0,t1);\n"
      "   output y;\n";
  EXPECT_EQ(rt::overlay_key(kernel, arch, 1),
            rt::overlay_key(reformatted, arch, 1));
}

TEST(OverlayKey, ParamValuesShareTheStructuralKey) {
  const ov::OverlayArch arch;
  const ov::ParsedKernel a = ov::parse_kernel_symbolic(dot2_kernel(0.5, -1.25));
  const ov::ParsedKernel b = ov::parse_kernel_symbolic(dot2_kernel(0.6, 7.0));
  const rt::CacheKeys keys_a = rt::cache_keys(a, arch, 1, a.params);
  const rt::CacheKeys keys_b = rt::cache_keys(b, arch, 1, b.params);
  // Same place & route, different coefficients: level-1 key equal,
  // level-2 signature (and thus the full configuration key) distinct.
  EXPECT_EQ(keys_a.structure, keys_b.structure);
  EXPECT_NE(keys_a.params, keys_b.params);
  EXPECT_NE(keys_a.full(), keys_b.full());
  // The mac iteration count is structural, not a parameter.
  EXPECT_NE(rt::cache_keys(ov::parse_kernel_symbolic(mac_kernel(2)), arch, 1, {})
                .structure,
            rt::cache_keys(ov::parse_kernel_symbolic(mac_kernel(3)), arch, 1, {})
                .structure);
}

TEST(OverlayCache, HitMissEvictionLru) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(2);
  // Distinct *structures* (capacity counts structural artifacts; kernels
  // differing only in coefficients share one entry, tested separately).
  const std::string a = mac_kernel(2);
  const std::string b = mac_kernel(3);
  const std::string c = mac_kernel(4);

  bool hit = true;
  double compile_seconds = 0;
  const auto first = cache.get_or_compile(a, arch, 1, &hit, &compile_seconds);
  EXPECT_FALSE(hit);
  EXPECT_GT(compile_seconds, 0.0);

  const auto again = cache.get_or_compile(a, arch, 1, &hit, &compile_seconds);
  EXPECT_TRUE(hit);
  EXPECT_EQ(compile_seconds, 0.0);
  EXPECT_EQ(first.get(), again.get());  // the artifact is shared, not recompiled

  cache.get_or_compile(b, arch, 1, &hit, nullptr);
  EXPECT_FALSE(hit);
  // Capacity 2: compiling C evicts the least recently used entry (order
  // of use: A (miss), A (hit), B (miss) -> MRU=B, LRU=A; C evicts A).
  cache.get_or_compile(c, arch, 1, &hit, nullptr);
  EXPECT_FALSE(hit);

  EXPECT_EQ(cache.peek(a, arch, 1), nullptr);  // A was evicted
  EXPECT_NE(cache.peek(b, arch, 1), nullptr);
  EXPECT_NE(cache.peek(c, arch, 1), nullptr);

  const rt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.structure_misses, 3u);
  EXPECT_EQ(stats.structure_hits, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.compile_seconds, 0.0);

  // The evicted handle stays valid for holders. Cache artifacts carry
  // canonical names (input x -> x0, the mac node y -> t0); the service
  // translates for jobs, direct holders address them canonically.
  const ov::Simulator simulator(first);
  const auto result = simulator.run_doubles({{"x0", single_input(8).at("x")}});
  EXPECT_EQ(result.outputs.count("t0"), 1u);
}

TEST(OverlayCache, ConcurrentSameKeyCompilesOnce) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(8);
  const std::string kernel = dot2_kernel(0.25, 0.75);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ov::Compiled>> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i]() {
        results[static_cast<std::size_t>(i)] =
            cache.get_or_compile(kernel, arch, 1);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(i)].get());
  }
  const rt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(OverlayCache, CompileFailureIsNotCached) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(4);
  EXPECT_THROW(cache.get_or_compile("this is not a kernel", arch, 1),
               std::invalid_argument);
  EXPECT_EQ(cache.peek("this is not a kernel", arch, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ExecutorPool, RunsWorkAndPropagatesExceptions) {
  rt::ExecutorPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }

  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("job exploded"); });
  EXPECT_THROW(failing.get(), std::runtime_error);

  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit_detached([&counter]() { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Simulator, SurvivesSourceCompiledDestruction) {
  const ov::OverlayArch arch;
  std::optional<ov::Simulator> simulator;
  std::vector<std::uint64_t> direct_bits;
  {
    const ov::Compiled compiled =
        ov::compile_kernel(dot2_kernel(0.5, -1.25), arch, 1);
    simulator.emplace(compiled);  // copies; safe after `compiled` dies
    direct_bits = output_bits(ov::Simulator(compiled).run_doubles(ramp_inputs(16)));
  }
  const auto after = output_bits(simulator->run_doubles(ramp_inputs(16)));
  EXPECT_EQ(after, direct_bits);
  EXPECT_FALSE(after.empty());
}

TEST(ReconfigScheduler, AffinityAvoidsReconfigurations) {
  const ov::OverlayArch arch;
  const auto a = std::make_shared<const ov::Compiled>(
      ov::compile_kernel(dot2_kernel(1.0, 2.0), arch, 1));
  const auto b = std::make_shared<const ov::Compiled>(
      ov::compile_kernel(dot2_kernel(-3.0, 4.0), arch, 1));
  const std::string key_a = rt::overlay_key(dot2_kernel(1.0, 2.0), arch, 1);
  const std::string key_b = rt::overlay_key(dot2_kernel(-3.0, 4.0), arch, 1);

  rt::ReconfigScheduler scheduler(2, std::make_shared<rt::RegisterDiffCostModel>());
  // Alternate A/B over 2 instances: the two first loads reconfigure, every
  // later assignment lands on the instance already holding the overlay.
  int expected_instance_a = -1;
  int expected_instance_b = -1;
  for (int round = 0; round < 4; ++round) {
    const rt::Assignment on_a = scheduler.acquire(key_a, a);
    scheduler.release(on_a.instance);
    const rt::Assignment on_b = scheduler.acquire(key_b, b);
    scheduler.release(on_b.instance);
    EXPECT_NE(on_a.instance, on_b.instance);
    if (round == 0) {
      EXPECT_TRUE(on_a.reconfigured);
      EXPECT_TRUE(on_b.reconfigured);
      EXPECT_GT(on_a.reconfig_seconds, 0.0);
      expected_instance_a = on_a.instance;
      expected_instance_b = on_b.instance;
    } else {
      EXPECT_FALSE(on_a.reconfigured);
      EXPECT_FALSE(on_b.reconfigured);
      EXPECT_EQ(on_a.reconfig_seconds, 0.0);
      EXPECT_EQ(on_a.instance, expected_instance_a);
      EXPECT_EQ(on_b.instance, expected_instance_b);
    }
  }
  const rt::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.assignments, 8u);
  EXPECT_EQ(stats.reconfigurations, 2u);
  EXPECT_EQ(stats.reconfigurations_avoided, 6u);
  EXPECT_GT(stats.avoided_reconfig_seconds, 0.0);
}

TEST(ReconfigScheduler, SingleInstanceThrashesByConstruction) {
  const ov::OverlayArch arch;
  const auto a = std::make_shared<const ov::Compiled>(
      ov::compile_kernel(dot2_kernel(1.0, 2.0), arch, 1));
  const auto b = std::make_shared<const ov::Compiled>(
      ov::compile_kernel(dot2_kernel(-3.0, 4.0), arch, 1));

  rt::ReconfigScheduler scheduler(1, std::make_shared<rt::RegisterDiffCostModel>());
  for (int round = 0; round < 3; ++round) {
    const auto on_a = scheduler.acquire("A", a);
    EXPECT_TRUE(on_a.reconfigured);
    scheduler.release(on_a.instance);
    const auto on_b = scheduler.acquire("B", b);
    EXPECT_TRUE(on_b.reconfigured);
    scheduler.release(on_b.instance);
  }
  EXPECT_EQ(scheduler.stats().reconfigurations, 6u);
  EXPECT_EQ(scheduler.stats().reconfigurations_avoided, 0u);
}

TEST(ReconfigCostModels, DiffCheaperThanBlankLoad) {
  const ov::OverlayArch arch;
  const ov::Compiled a = ov::compile_kernel(dot2_kernel(0.5, -1.25), arch, 1);
  const ov::Compiled b = ov::compile_kernel(dot2_kernel(0.5, -1.5), arch, 1);

  rt::RegisterDiffCostModel proxy;
  const double blank = proxy.switch_seconds(nullptr, a);
  const double same = proxy.switch_seconds(&a, a);
  const double diff = proxy.switch_seconds(&a, b);
  EXPECT_GT(blank, 0.0);
  EXPECT_EQ(same, 0.0);
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, blank);  // only coefficient words changed

  // The SCG model prices the same swap through the PPC + frame model. A
  // no-op swap still pays PPC evaluation (the SCG must prove nothing
  // changed), but writes no frames — the scheduler's exact-match path
  // skips the model entirely, so that cost is never charged in practice.
  rt::ScgCostModel scg;
  const double scg_blank = scg.switch_seconds(nullptr, a);
  const double scg_diff = scg.switch_seconds(&a, b);
  const double scg_same = scg.switch_seconds(&a, a);
  EXPECT_GT(scg_blank, 0.0);
  EXPECT_GT(scg_diff, 0.0);
  EXPECT_LT(scg_diff, scg_blank);
  EXPECT_LT(scg_same, scg_diff);
}

TEST(OverlayService, CachedRunMatchesFreshRunBitExactly) {
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);

  rt::JobRequest request;
  request.kernel_text = dot2_kernel(0.5, -1.25);
  request.inputs = ramp_inputs(64);

  const rt::JobResult fresh = service.run(request);
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_GT(fresh.compile_seconds, 0.0);

  const rt::JobResult cached = service.run(request);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.compile_seconds, 0.0);
  EXPECT_EQ(output_bits(cached.run), output_bits(fresh.run));

  // Both agree with a direct compile + simulate outside the service.
  const ov::Simulator direct(
      ov::compile_kernel(request.kernel_text, request.arch, request.seed));
  EXPECT_EQ(output_bits(direct.run_doubles(request.inputs)),
            output_bits(fresh.run));

  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(OverlayService, ConcurrentSubmissionIsBitExactAcrossThreadCounts) {
  constexpr int kKernels = 4;
  constexpr int kJobsPerKernel = 8;
  std::vector<std::string> kernels;
  for (int k = 0; k < kKernels; ++k) {
    kernels.push_back(dot2_kernel(0.25 * (k + 1), -0.5 * (k + 1)));
  }

  const auto run_all = [&](int threads) {
    rt::ServiceOptions options;
    options.threads = threads;
    rt::OverlayService service(options);
    std::vector<std::future<rt::JobResult>> futures;
    for (int j = 0; j < kKernels * kJobsPerKernel; ++j) {
      rt::JobRequest request;
      request.kernel_text = kernels[static_cast<std::size_t>(j % kKernels)];
      request.inputs = ramp_inputs(32, 1.0 + 0.125 * (j / kKernels));
      futures.push_back(service.submit(std::move(request)));
    }
    std::vector<std::vector<std::uint64_t>> outputs;
    for (auto& future : futures) outputs.push_back(output_bits(future.get().run));
    const rt::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_completed,
              static_cast<std::uint64_t>(kKernels * kJobsPerKernel));
    EXPECT_EQ(stats.jobs_failed, 0u);
    return outputs;
  };

  const auto single = run_all(1);
  const auto parallel = run_all(4);
  ASSERT_EQ(single.size(), parallel.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], parallel[i]) << "job " << i;
  }
}

TEST(OverlayService, DeterministicSeedingSharesOneCompilePerSeed) {
  rt::ServiceOptions options;
  options.threads = 4;
  rt::OverlayService service(options);

  rt::JobRequest request;
  request.kernel_text = dot2_kernel(0.5, 0.75);
  request.inputs = ramp_inputs(16);
  request.seed = 42;

  std::vector<std::future<rt::JobResult>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(service.submit(request));
  std::vector<std::vector<std::uint64_t>> outputs;
  for (auto& future : futures) outputs.push_back(output_bits(future.get().run));
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[0], outputs[i]);
  }

  // One artifact: every job shares the same placement (register words).
  const auto compiled = service.cache().peek(request.kernel_text, request.arch, 42);
  ASSERT_NE(compiled, nullptr);
  const ov::Compiled reference =
      ov::compile_kernel(request.kernel_text, request.arch, 42);
  EXPECT_EQ(compiled->settings.register_words(compiled->arch),
            reference.settings.register_words(reference.arch));
  // All lookups resolved against a single compile (misses + joins <= all).
  EXPECT_EQ(service.stats().cache.entries, 1u);
}

TEST(OverlayService, EvictionUnderPressureKeepsResultsCorrect) {
  rt::ServiceOptions options;
  options.threads = 2;
  options.cache_capacity = 2;  // far fewer than distinct kernels
  rt::OverlayService service(options);

  std::vector<std::future<rt::JobResult>> futures;
  for (int j = 0; j < 24; ++j) {
    rt::JobRequest request;
    request.kernel_text = mac_kernel(2 + j % 6, 0.125 * ((j % 6) + 1));
    request.inputs = single_input(16);
    futures.push_back(service.submit(std::move(request)));
  }
  for (int j = 0; j < 24; ++j) {
    const rt::JobResult result = futures[static_cast<std::size_t>(j)].get();
    const ov::Simulator direct(ov::compile_kernel(
        mac_kernel(2 + j % 6, 0.125 * ((j % 6) + 1)), ov::OverlayArch{}, 1));
    EXPECT_EQ(output_bits(result.run),
              output_bits(direct.run_doubles(single_input(16))));
  }
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 24u);
  EXPECT_GT(stats.cache.evictions, 0u);
}

TEST(OverlayService, FailedJobsReportThroughFutures) {
  rt::OverlayService service(rt::ServiceOptions{});
  rt::JobRequest request;
  request.kernel_text = "definitely not a kernel";
  auto future = service.submit(std::move(request));
  EXPECT_THROW(future.get(), std::invalid_argument);
  EXPECT_EQ(service.stats().jobs_failed, 1u);
}

TEST(OverlayService, FailedTasksAreCountedAndPropagate) {
  rt::OverlayService service(rt::ServiceOptions{});
  auto good = service.submit_task([]() { return 7; });
  auto bad = service.submit_task(
      []() -> int { throw std::runtime_error("filter exploded"); });
  EXPECT_EQ(good.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tasks_submitted, 2u);
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_EQ(stats.tasks_failed, 1u);
}

// --- edge cases: degenerate capacities, shutdown, submit coalescing --------

TEST(OverlayCache, CapacityZeroIsClampedToOneAndWorks) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);

  bool hit = true;
  const auto first = cache.get_or_compile(dot2_kernel(1.0, 2.0), arch, 1, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  cache.get_or_compile(dot2_kernel(1.0, 2.0), arch, 1, &hit);
  EXPECT_TRUE(hit);  // the single slot still caches
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(OverlayCache, CapacityOneThrashesButStaysCorrect) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(1);
  const std::string a = mac_kernel(2);
  const std::string b = mac_kernel(3);

  // Alternating structures: every access after the first evicts the other.
  for (int round = 0; round < 3; ++round) {
    bool hit = true;
    const auto compiled = cache.get_or_compile(round % 2 ? b : a, arch, 1, &hit);
    EXPECT_FALSE(hit) << "round " << round;
    ASSERT_NE(compiled, nullptr);
    // Evicted-or-not, the handle always simulates correctly (canonical
    // names: the cache compiles the alpha-renamed DFG).
    const ov::Simulator simulator(compiled);
    EXPECT_EQ(simulator.run_doubles({{"x0", single_input(4).at("x")}})
                  .outputs.count("t0"),
              1u);
  }
  const rt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.hits, 0u);

  bool hit = false;
  cache.get_or_compile(a, arch, 1, &hit);  // a is the resident entry
  EXPECT_TRUE(hit);
}

TEST(OverlayService, CacheCapacityZeroServiceStillServes) {
  rt::ServiceOptions options;
  options.threads = 2;
  options.cache_capacity = 0;  // normalized to 1
  rt::OverlayService service(options);
  EXPECT_EQ(service.cache().capacity(), 1u);

  std::vector<std::future<rt::JobResult>> futures;
  for (int j = 0; j < 12; ++j) {
    rt::JobRequest request;
    request.kernel_text = dot2_kernel(1.0 + j % 3, -2.0);
    request.inputs = ramp_inputs(16);
    futures.push_back(service.submit(std::move(request)));
  }
  for (auto& future : futures) {
    const rt::JobResult result = future.get();
    EXPECT_EQ(result.run.outputs.count("y"), 1u);
  }
  EXPECT_EQ(service.stats().jobs_completed, 12u);
}

TEST(OverlayService, ShutdownWithQueuedJobsCompletesEveryFuture) {
  std::vector<std::future<rt::JobResult>> futures;
  std::vector<std::uint64_t> expected;
  {
    rt::ServiceOptions options;
    options.threads = 1;  // deep queue behind a single worker
    rt::OverlayService service(options);

    // Expected bits from a pre-shutdown run of each kernel.
    for (int j = 0; j < 3; ++j) {
      rt::JobRequest request;
      request.kernel_text = dot2_kernel(0.5 + j, 1.5);
      request.inputs = ramp_inputs(32);
      const auto bits = output_bits(service.run(std::move(request)).run);
      expected.insert(expected.end(), bits.begin(), bits.end());
    }
    for (int j = 0; j < 24; ++j) {
      rt::JobRequest request;
      request.kernel_text = dot2_kernel(0.5 + j % 3, 1.5);
      request.inputs = ramp_inputs(32);
      futures.push_back(service.submit(std::move(request)));
    }
    // Service destructor runs here with most of the queue still pending.
  }
  std::vector<std::uint64_t> seen;
  for (std::size_t j = 0; j < futures.size(); ++j) {
    ASSERT_TRUE(futures[j].valid());
    const auto bits = output_bits(futures[j].get().run);  // must not hang/throw
    const auto& want = expected;
    const std::size_t base = (j % 3) * bits.size();
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(bits[i], want[base + i]) << "job " << j << " sample " << i;
    }
  }
}

TEST(OverlayService, ConcurrentDuplicateSubmissionsCoalesceToOneCompile) {
  rt::ServiceOptions options;
  options.threads = 8;
  // Fusion would coalesce these drains before the cache ever sees them;
  // disable it so the in-flight-join path itself stays under test.
  options.max_batch_jobs = 1;
  rt::OverlayService service(options);

  constexpr int kDuplicates = 16;
  std::vector<std::future<rt::JobResult>> futures;
  for (int j = 0; j < kDuplicates; ++j) {
    rt::JobRequest request;
    request.kernel_text = dot2_kernel(0.125, -0.875);  // identical every time
    request.inputs = ramp_inputs(64);
    futures.push_back(service.submit(std::move(request)));
  }
  std::vector<std::uint64_t> reference;
  for (auto& future : futures) {
    const rt::JobResult result = future.get();
    const auto bits = output_bits(result.run);
    if (reference.empty()) {
      reference = bits;
    } else {
      EXPECT_EQ(bits, reference);
    }
  }
  const rt::CacheStats cache = service.stats().cache;
  EXPECT_EQ(cache.hits + cache.misses, static_cast<std::uint64_t>(kDuplicates));
  // Exactly one compile ran: every miss beyond the first joined in-flight.
  EXPECT_EQ(cache.misses - cache.inflight_joins, 1u);
  EXPECT_EQ(cache.entries, 1u);
}

// --- the parameter-symbolic fast path ---------------------------------------

TEST(OverlayService, ParamOnlyJobPerformsZeroPlaceRouteWork) {
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);

  rt::JobRequest cold;
  cold.kernel_text = dot2_kernel(0.5, -1.25);
  cold.inputs = ramp_inputs(64);
  const rt::JobResult first = service.run(cold);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.structure_hit);
  EXPECT_GT(first.compile_seconds, 0.0);

  // Same kernel text, new coefficients via the override map: the
  // acceptance criterion — zero place & route work, bit-identical to a
  // from-scratch compile of the specialized kernel.
  rt::JobRequest respec;
  respec.kernel_text = dot2_kernel(0.5, -1.25);
  respec.inputs = ramp_inputs(64);
  respec.params = {{"c0", 0.9}, {"c1", 0.1}};
  const rt::JobResult second = service.run(respec);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.structure_hit);
  EXPECT_EQ(second.compile_seconds, 0.0);

  const ov::Simulator direct(
      ov::compile_kernel(dot2_kernel(0.9, 0.1), ov::OverlayArch{}, 1));
  EXPECT_EQ(output_bits(second.run),
            output_bits(direct.run_doubles(ramp_inputs(64))));

  // New coefficients as *literals* in the text: still the same structure,
  // and — because the binding matches the override job above — a full hit.
  rt::JobRequest literal;
  literal.kernel_text = dot2_kernel(0.9, 0.1);
  literal.inputs = ramp_inputs(64);
  const rt::JobResult third = service.run(literal);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_TRUE(third.structure_hit);
  EXPECT_EQ(third.compile_seconds, 0.0);
  EXPECT_EQ(output_bits(third.run), output_bits(second.run));

  const rt::CacheStats stats = service.stats().cache;
  EXPECT_EQ(stats.structure_misses, 1u);  // one place & route for all three
  EXPECT_EQ(stats.structure_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_NE(service.cache().peek_structure(cold.kernel_text, cold.arch, 1),
            nullptr);
}

TEST(OverlayService, ReformattedKernelIsAFullCacheHit) {
  rt::ServiceOptions options;
  options.threads = 1;
  rt::OverlayService service(options);

  rt::JobRequest request;
  request.kernel_text = dot2_kernel(0.25, 0.75);
  request.inputs = ramp_inputs(16);
  const rt::JobResult first = service.run(request);
  EXPECT_FALSE(first.cache_hit);

  rt::JobRequest reformatted;
  reformatted.kernel_text =
      "input x0;input x1;  # same kernel, different formatting\n"
      "param c0 = 0.25;\nparam c1 = 0.75;\n"
      "t0 = mul(x0,c0);\n t1 = mul(x1,  c1);\n"
      "y = add(t0, t1);\noutput y;";
  reformatted.inputs = ramp_inputs(16);
  const rt::JobResult second = service.run(reformatted);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(output_bits(second.run), output_bits(first.run));
}

TEST(OverlayService, UnknownParamOverrideFailsThroughFuture) {
  rt::OverlayService service(rt::ServiceOptions{});
  rt::JobRequest request;
  request.kernel_text = dot2_kernel(0.5, -1.25);
  request.inputs = ramp_inputs(8);
  request.params = {{"not_a_param", 1.0}};
  auto future = service.submit(std::move(request));
  EXPECT_THROW(future.get(), std::invalid_argument);
  EXPECT_EQ(service.stats().jobs_failed, 1u);
}

TEST(OverlayCache, SpecializationWorkingSetIsBoundedPerStructure) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(4);
  const std::size_t n = rt::OverlayCache::kSpecializationsPerStructure + 8;
  for (std::size_t i = 0; i < n; ++i) {
    bool hit = true;
    const auto compiled = cache.get_or_compile(
        dot2_kernel(0.001 * static_cast<double>(i + 1), -1.0), arch, 1, &hit);
    EXPECT_FALSE(hit);
    ASSERT_NE(compiled, nullptr);
  }
  const rt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // one structure for every coefficient set
  EXPECT_EQ(stats.structure_misses, 1u);
  EXPECT_EQ(stats.structure_hits, static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(stats.specialized_entries,
            rt::OverlayCache::kSpecializationsPerStructure);
  EXPECT_EQ(stats.evictions, 0u);  // structural evictions only
}

TEST(ReconfigScheduler, SameStructureSwapIsParamOnlyAndCheap) {
  const ov::OverlayArch arch;
  const ov::ParsedKernel parsed =
      ov::parse_kernel_symbolic(dot2_kernel(1.0, 2.0));
  const ov::CompiledStructure structure =
      ov::compile_structure(parsed.dfg, arch, 1);
  const auto a =
      std::make_shared<const ov::Compiled>(ov::specialize(structure));
  const auto b = std::make_shared<const ov::Compiled>(
      ov::specialize(structure, {{"c0", 3.0}, {"c1", -4.0}}));

  rt::RegisterDiffCostModel model;
  const double blank_cost = model.switch_seconds(nullptr, *a);

  rt::ReconfigScheduler scheduler(
      1, std::make_shared<rt::RegisterDiffCostModel>());
  const auto load = scheduler.acquire("S|p1", "S", a);
  EXPECT_TRUE(load.reconfigured);
  EXPECT_FALSE(load.param_only);
  scheduler.release(load.instance);

  const auto swap = scheduler.acquire("S|p2", "S", b);
  EXPECT_TRUE(swap.reconfigured);
  EXPECT_TRUE(swap.param_only);
  EXPECT_GT(swap.reconfig_seconds, 0.0);
  // Only the coefficient words differ: far cheaper than a blank load.
  EXPECT_LT(swap.reconfig_seconds, blank_cost);
  scheduler.release(swap.instance);

  const auto repeat = scheduler.acquire("S|p2", "S", b);
  EXPECT_FALSE(repeat.reconfigured);
  scheduler.release(repeat.instance);

  const rt::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.param_respecializations, 1u);
  EXPECT_GT(stats.param_reconfig_seconds, 0.0);
  EXPECT_EQ(stats.reconfigurations, 2u);
  EXPECT_EQ(stats.reconfigurations_avoided, 1u);
}

TEST(ReconfigScheduler, PrefersSameStructureOverBlankInstance) {
  const ov::OverlayArch arch;
  const ov::ParsedKernel parsed =
      ov::parse_kernel_symbolic(dot2_kernel(1.0, 2.0));
  const ov::CompiledStructure structure =
      ov::compile_structure(parsed.dfg, arch, 1);
  const auto a =
      std::make_shared<const ov::Compiled>(ov::specialize(structure));
  const auto b = std::make_shared<const ov::Compiled>(
      ov::specialize(structure, {{"c0", 9.0}}));

  rt::ReconfigScheduler scheduler(
      2, std::make_shared<rt::RegisterDiffCostModel>());
  const auto load = scheduler.acquire("S|p1", "S", a);
  scheduler.release(load.instance);
  // Instance 0 holds the structure; instance 1 is blank. A param variant
  // should respecialize in place, not burn a blank instance.
  const auto swap = scheduler.acquire("S|p2", "S", b);
  EXPECT_EQ(swap.instance, load.instance);
  EXPECT_TRUE(swap.param_only);
  scheduler.release(swap.instance);
}

// Satellite: concurrent mixed traffic — several structures, several
// coefficient sets each, duplicates — stays bit-exact and compiles each
// structure exactly once (satellite requirement on OverlayService).
TEST(OverlayService, ConcurrentMixedStructureAndParamTraffic) {
  constexpr int kStructures = 4;   // mac counts 2..5
  constexpr int kParamSets = 6;
  constexpr int kRepeats = 2;
  rt::ServiceOptions options;
  options.threads = 8;
  rt::OverlayService service(options);

  struct Job {
    std::string kernel;
    double coeff;
    std::future<rt::JobResult> future;
  };
  std::vector<Job> jobs;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (int s = 0; s < kStructures; ++s) {
      for (int p = 0; p < kParamSets; ++p) {
        Job job;
        job.coeff = 0.125 * (p + 1) * (s % 2 ? -1.0 : 1.0);
        job.kernel = mac_kernel(2 + s, job.coeff);
        rt::JobRequest request;
        request.kernel_text = job.kernel;
        request.inputs = single_input(32);
        job.future = service.submit(std::move(request));
        jobs.push_back(std::move(job));
      }
    }
  }
  for (Job& job : jobs) {
    const rt::JobResult result = job.future.get();
    const ov::Simulator direct(
        ov::compile_kernel(job.kernel, ov::OverlayArch{}, 1));
    EXPECT_EQ(output_bits(result.run),
              output_bits(direct.run_doubles(single_input(32))));
  }
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::uint64_t>(kStructures * kParamSets * kRepeats));
  EXPECT_EQ(stats.jobs_failed, 0u);
  // In-flight coalescing + the structure cache: place & route ran exactly
  // once per distinct structure, however the 48 jobs interleaved.
  EXPECT_EQ(stats.cache.structure_misses,
            static_cast<std::uint64_t>(kStructures));
  EXPECT_EQ(stats.cache.entries, static_cast<std::size_t>(kStructures));
}

// Satellite: alpha-renaming in canonicalization — isomorphic kernels that
// differ only in signal names map to one structure_key (and, with equal
// coefficients, one *full* key), so the dedup reaches the cache.
TEST(OverlayService, AlphaRenamedKernelsShareOneStructure) {
  const ov::OverlayArch arch;
  const std::string original = dot2_kernel(0.5, -1.25);
  const std::string renamed =
      "input lhs; input rhs;\n"
      "param w_a = 0.5; param w_b = -1.25;\n"
      "prod_a = mul(lhs, w_a); prod_b = mul(rhs, w_b);\n"
      "acc = add(prod_a, prod_b);\n"
      "output acc;\n";

  // Equal coefficients: the *full* canonical keys collapse too.
  EXPECT_EQ(rt::overlay_key(original, arch, 1), rt::overlay_key(renamed, arch, 1));
  const rt::CacheKeys keys_orig = rt::cache_keys(
      ov::parse_kernel_symbolic(original), arch, 1,
      ov::parse_kernel_symbolic(original).params);
  const rt::CacheKeys keys_renamed = rt::cache_keys(
      ov::parse_kernel_symbolic(renamed), arch, 1,
      ov::parse_kernel_symbolic(renamed).params);
  EXPECT_EQ(keys_orig.structure, keys_renamed.structure);
  EXPECT_EQ(keys_orig.params, keys_renamed.params);

  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);

  rt::JobRequest first;
  first.kernel_text = original;
  first.inputs = ramp_inputs(32);
  const rt::JobResult cold = service.run(first);
  EXPECT_FALSE(cold.cache_hit);

  // The renamed kernel is a *full* hit: zero place & route, zero
  // respecialization, and (after name translation) identical bits under
  // its own output name.
  rt::JobRequest second;
  second.kernel_text = renamed;
  second.inputs = {{"lhs", first.inputs.at("x0")}, {"rhs", first.inputs.at("x1")}};
  const rt::JobResult hit = service.run(second);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.structure_hit);
  EXPECT_EQ(hit.compile_seconds, 0.0);
  EXPECT_EQ(output_bits(hit.run, "acc"), output_bits(cold.run, "y"));
  EXPECT_FALSE(output_bits(hit.run, "acc").empty());

  // Param overrides ride the rename too (real names on the outside).
  rt::JobRequest override_job;
  override_job.kernel_text = renamed;
  override_job.inputs = second.inputs;
  override_job.params = {{"w_a", 0.9}, {"w_b", 0.1}};
  const rt::JobResult respec = service.run(override_job);
  EXPECT_TRUE(respec.structure_hit);
  EXPECT_EQ(respec.compile_seconds, 0.0);
  const ov::Simulator direct(
      ov::compile_kernel(dot2_kernel(0.9, 0.1), arch, 1));
  EXPECT_EQ(output_bits(respec.run, "acc"),
            output_bits(direct.run_doubles(ramp_inputs(32))));

  const rt::CacheStats stats = service.stats().cache;
  EXPECT_EQ(stats.entries, 1u);            // one structure for all spellings
  EXPECT_EQ(stats.structure_misses, 1u);   // one place & route total
}

// Satellite: structure-aware eviction weights — a structure with a hot
// specialization set outlives a cold one even when raw LRU order says
// otherwise.
TEST(OverlayCache, EvictionPrefersColdStructuresOverHotOnes) {
  const ov::OverlayArch arch;
  rt::OverlayCache cache(2);

  // Structure A: one place & route, then a hot set of 5 specializations.
  for (int i = 0; i < 5; ++i) {
    cache.get_or_compile(dot2_kernel(0.125 * (i + 1), -1.0), arch, 1);
  }
  // Structure B: cold — a single specialization.
  cache.get_or_compile(mac_kernel(2), arch, 1);
  EXPECT_EQ(cache.stats().entries, 2u);

  // B was touched last, so raw LRU would evict A (the hot one). The
  // weighted policy must sacrifice cold B instead: A's live
  // specialization count dominates any recompile-time bucket split.
  cache.get_or_compile(mac_kernel(3), arch, 1);
  const rt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_NE(cache.peek_structure(dot2_kernel(0.125, -1.0), arch, 1), nullptr)
      << "hot structure A was evicted";
  EXPECT_EQ(cache.peek_structure(mac_kernel(2), arch, 1), nullptr)
      << "cold structure B survived instead";
  EXPECT_NE(cache.peek_structure(mac_kernel(3), arch, 1), nullptr);

  // Equal-weight entries still evict in pure LRU order (asserted by
  // OverlayCache.HitMissEvictionLru above).
}

// The eviction weight comes from deterministic compile work (placed PEs,
// routed hops), never from measured compile seconds: a compile slowed by
// load must not change the victim. Records that differ from the true
// structures only in report.*_seconds are served from a store, so the
// cache sees exactly those seconds.
TEST(OverlayCache, EvictionWeightIgnoresMeasuredCompileSeconds) {
  const ov::OverlayArch arch;
  const std::string kernels[] = {mac_kernel(2), mac_kernel(3), mac_kernel(4)};
  std::vector<std::string> keys;
  std::vector<ov::CompiledStructure> structures;
  for (const std::string& kernel : kernels) {
    const ov::ParsedKernel parsed = ov::parse_kernel_symbolic(kernel);
    keys.push_back(rt::cache_keys(parsed, arch, 1, parsed.params).structure);
    structures.push_back(ov::compile_structure_canonical(parsed, arch, 1));
  }
  const auto with_seconds = [](ov::CompiledStructure structure, double seconds) {
    structure.report.synth_seconds = seconds;
    structure.report.map_seconds = seconds;
    structure.report.place_seconds = seconds;
    structure.report.route_seconds = seconds;
    return structure;
  };
  EXPECT_EQ(rt::OverlayCache::recompile_cost_class(with_seconds(structures[0], 0)),
            rt::OverlayCache::recompile_cost_class(with_seconds(structures[0], 30)));

  // Capacity 2, touched A, A, B, then C: A is the LRU victim whatever the
  // records claim A and B took to compile.
  const auto victim = [&](double a_seconds, double b_seconds) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        vc::strprintf("vcgra-test-evict-seconds-%d", static_cast<int>(::getpid()));
    std::filesystem::remove_all(dir);
    int evicted = -1;
    {
      auto store = std::make_shared<vcgra::store::OverlayStore>(dir);
      const double seconds[] = {a_seconds, b_seconds, 0};
      for (std::size_t i = 0; i < keys.size(); ++i) {
        store->save(keys[i], with_seconds(structures[i], seconds[i]));
      }
      rt::OverlayCache cache(2);
      cache.attach_store(store, /*write_behind=*/false);
      for (const int k : {0, 0, 1, 2}) cache.get_or_compile(kernels[k], arch, 1);
      const rt::CacheStats stats = cache.stats();
      EXPECT_EQ(stats.disk_hits, 3u);
      EXPECT_EQ(stats.structure_misses, 0u);
      EXPECT_EQ(stats.evictions, 1u);
      for (int k = 0; k < 3; ++k) {
        if (cache.peek_structure(kernels[k], arch, 1) == nullptr) evicted = k;
      }
    }
    std::filesystem::remove_all(dir);
    return evicted;
  };
  EXPECT_EQ(victim(0, 0), 0);
  EXPECT_EQ(victim(120, 0), 0) << "a slow recorded compile protected A";
  EXPECT_EQ(victim(0, 120), 0);
}

TEST(ServiceStats, PercentileNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(rt::percentile(samples, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(rt::percentile(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(rt::percentile(samples, 1.00), 100.0);
  EXPECT_DOUBLE_EQ(rt::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(rt::percentile({3.0}, 0.99), 3.0);
}

// --- fused multi-job batches -------------------------------------------------

// Queued jobs sharing one specialization ride a single fused batch.
// The wave is bit-identical to per-job execution at any thread count and
// any fusion setting, batches are observed (batch_size > 1, the fused_*
// stats move), and the mixed-length decimating-MAC jobs prove per-job
// MAC state survives striping.
TEST(OverlayService, FusedBatchSweepIsBitExactAndAccounted) {
  const std::string kernel = mac_kernel(3, 0.8125);
  const auto run_wave = [&](int threads, std::size_t max_batch) {
    rt::ServiceOptions options;
    options.threads = threads;
    options.max_batch_jobs = max_batch;
    rt::OverlayService service(options);
    // Plug every worker so the whole wave queues before the first drain:
    // fusion then has material to gather, deterministically.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    for (int t = 0; t < threads; ++t) {
      service.executor().submit_detached([gate]() { gate.wait(); });
    }
    std::vector<std::future<rt::JobResult>> futures;
    for (int j = 0; j < 24; ++j) {
      rt::JobRequest request;
      request.kernel_text = kernel;
      request.inputs = single_input(32 + (j % 5), 0.25 * (j + 1));
      futures.push_back(service.submit(std::move(request)));
    }
    release.set_value();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    int max_batch_seen = 1;
    for (auto& future : futures) {
      const rt::JobResult result = future.get();
      max_batch_seen = std::max(max_batch_seen, result.batch_size);
      hash ^= result.run.cycles;
      hash *= 0x100000001b3ULL;
      hash ^= result.run.fp_ops;
      hash *= 0x100000001b3ULL;
      hash ^= result.run.mac_ops;
      hash *= 0x100000001b3ULL;
      for (const std::uint64_t bits : output_bits(result.run)) {
        hash ^= bits;
        hash *= 0x100000001b3ULL;
      }
    }
    const rt::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_completed, 24u);
    EXPECT_EQ(stats.jobs_failed, 0u);
    if (max_batch > 1) {
      EXPECT_GT(max_batch_seen, 1);
      EXPECT_GT(stats.fused_batches, 0u);
      EXPECT_GE(stats.batched_jobs,
                static_cast<std::uint64_t>(max_batch_seen));
    } else {
      EXPECT_EQ(max_batch_seen, 1);
      EXPECT_EQ(stats.fused_batches, 0u);
      EXPECT_EQ(stats.batched_jobs, 0u);
    }
    return hash;
  };
  const std::uint64_t fused = run_wave(1, 16);
  EXPECT_EQ(fused, run_wave(1, 1));   // fused == per-job execution
  EXPECT_EQ(fused, run_wave(4, 16));  // and across thread counts
}

// Raw-bits job I/O through the service: u64 encodings in, u64 encodings
// out, bit-identical to the double boundary on both engines (the
// interpreter converts with the scalar FpValue boundary, so it stays an
// independent oracle for the plan path).
TEST(OverlayService, RawBitsJobBoundaryMatchesDoubleBoundary) {
  for (const bool use_plan : {true, false}) {
    SCOPED_TRACE(use_plan ? "plan" : "interpreter");
    rt::ServiceOptions options;
    options.threads = 1;
    options.use_plan_executor = use_plan;
    rt::OverlayService service(options);

    rt::JobRequest via_doubles;
    via_doubles.kernel_text = dot2_kernel(0.125, -0.875);
    via_doubles.inputs = ramp_inputs(64);
    const rt::JobResult plain = service.run(std::move(via_doubles));
    const std::vector<std::uint64_t> want = output_bits(plain.run);
    ASSERT_EQ(want.size(), 64u);

    rt::JobRequest via_bits;
    via_bits.kernel_text = dot2_kernel(0.125, -0.875);
    via_bits.raw_output = true;
    const ov::OverlayArch arch;  // the service default
    for (const auto& [name, stream] : ramp_inputs(64)) {
      std::vector<std::uint64_t>& bits = via_bits.input_bits[name];
      bits.reserve(stream.size());
      for (const double v : stream) {
        bits.push_back(
            vcgra::softfloat::FpValue::from_double(arch.format, v).bits());
      }
    }
    const rt::JobResult raw = service.run(std::move(via_bits));
    EXPECT_TRUE(raw.run.outputs.empty());
    const auto it = raw.run.bit_outputs.find("y");
    ASSERT_NE(it, raw.run.bit_outputs.end());
    EXPECT_EQ(it->second, want);
    EXPECT_EQ(raw.run.cycles, plain.run.cycles);
    EXPECT_EQ(raw.run.fp_ops, plain.run.fp_ops);

    // A stream supplied in both encodings at once must fail loudly.
    rt::JobRequest both;
    both.kernel_text = dot2_kernel(0.125, -0.875);
    both.inputs = ramp_inputs(64);
    both.input_bits["x0"] = std::vector<std::uint64_t>(64, 0);
    EXPECT_THROW(service.run(std::move(both)), std::invalid_argument);
  }
}

// --- error-path accounting ---------------------------------------------------

// Waves of mixed failing/succeeding jobs — front-end parse failures,
// ragged streams failing per-job inside fused batches, and healthy
// neighbors — must leave the books conserved: every submission either
// completed or failed, the pool's queue-depth gauge returns to zero,
// healthy outputs stay bit-exact, and back-to-back stats() snapshots
// agree on every count.
TEST(OverlayService, MixedFailureWavesKeepAccountingConserved) {
  rt::ServiceOptions options;
  options.threads = 4;
  rt::OverlayService service(options);

  const rt::JobResult reference = [&] {
    rt::JobRequest request;
    request.kernel_text = dot2_kernel(0.25, 0.75);
    request.inputs = ramp_inputs(48);
    return service.run(std::move(request));
  }();
  const std::vector<std::uint64_t> want = output_bits(reference.run);

  std::uint64_t expect_ok = 1;  // the reference above
  std::uint64_t expect_failed = 0;
  for (int wave = 0; wave < 3; ++wave) {
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    for (int t = 0; t < options.threads; ++t) {
      service.executor().submit_detached([gate]() { gate.wait(); });
    }
    std::vector<std::future<rt::JobResult>> futures;
    std::vector<bool> should_fail;
    for (int j = 0; j < 32; ++j) {
      rt::JobRequest request;
      if (j % 4 == 0) {
        // Ragged streams: parses fine (same config key as the healthy
        // jobs, so it rides their fused batch) but fails validation.
        request.kernel_text = dot2_kernel(0.25, 0.75);
        request.inputs = ramp_inputs(48);
        request.inputs["x1"].pop_back();
        should_fail.push_back(true);
      } else if (j % 4 == 1) {
        // Front-end failure: never reaches a worker's engine.
        request.kernel_text = "input ;;; nonsense\n";
        should_fail.push_back(true);
      } else {
        request.kernel_text = dot2_kernel(0.25, 0.75);
        request.inputs = ramp_inputs(48);
        should_fail.push_back(false);
      }
      futures.push_back(service.submit(std::move(request)));
    }
    release.set_value();
    for (std::size_t j = 0; j < futures.size(); ++j) {
      if (should_fail[j]) {
        ++expect_failed;
        EXPECT_ANY_THROW(futures[j].get()) << "wave " << wave << " job " << j;
      } else {
        ++expect_ok;
        const rt::JobResult result = futures[j].get();
        EXPECT_EQ(output_bits(result.run), want)
            << "wave " << wave << " job " << j;
      }
    }
  }

  service.wait_idle();
  const rt::ServiceStats first = service.stats();
  EXPECT_EQ(first.jobs_submitted, expect_ok + expect_failed);
  EXPECT_EQ(first.jobs_completed, expect_ok);
  EXPECT_EQ(first.jobs_failed, expect_failed);
  EXPECT_EQ(first.jobs_submitted, first.jobs_completed + first.jobs_failed);
  EXPECT_EQ(service.metrics().snapshot().gauges.at("pool.queue_depth"), 0);

  // The books must hold still once the service is idle.
  const rt::ServiceStats second = service.stats();
  EXPECT_EQ(second.jobs_submitted, first.jobs_submitted);
  EXPECT_EQ(second.jobs_completed, first.jobs_completed);
  EXPECT_EQ(second.jobs_failed, first.jobs_failed);
  EXPECT_EQ(second.fused_batches, first.fused_batches);
  EXPECT_EQ(second.batched_jobs, first.batched_jobs);
  EXPECT_EQ(second.p50_latency_seconds, first.p50_latency_seconds);
  EXPECT_EQ(second.p999_latency_seconds, first.p999_latency_seconds);
  EXPECT_EQ(second.exec_seconds, first.exec_seconds);
}

// --- inline synchronous runs -----------------------------------------------

namespace {

rt::JobRequest dot2_request(double a, double b, std::size_t length = 32) {
  rt::JobRequest request;
  request.kernel_text = dot2_kernel(a, b);
  request.inputs = ramp_inputs(length);
  return request;
}

std::vector<std::uint64_t> dot2_reference_bits(double a, double b,
                                               std::size_t length = 32) {
  const ov::Simulator direct(ov::compile_kernel(dot2_kernel(a, b), {}, 1));
  return output_bits(direct.run_doubles(ramp_inputs(length)));
}

/// Holds every worker of `service` on a gate until release() (or
/// destruction); the constructor returns once each worker is parked.
class WorkerPlug {
 public:
  explicit WorkerPlug(rt::OverlayService& service) {
    const int workers = service.options().threads;
    std::vector<std::future<void>> parked;
    for (int t = 0; t < workers; ++t) {
      auto started = std::make_shared<std::promise<void>>();
      parked.push_back(started->get_future());
      service.executor().submit_detached([gate = gate_, started]() {
        started->set_value();
        gate.wait();
      });
    }
    for (auto& future : parked) future.wait();
  }
  ~WorkerPlug() { release(); }
  WorkerPlug(const WorkerPlug&) = delete;
  WorkerPlug& operator=(const WorkerPlug&) = delete;

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_{release_.get_future().share()};
  bool released_ = false;
};

/// Spin (bounded) until `done()` holds; false on timeout. Yields rather
/// than sleeps, so the caller sees the state change within microseconds.
template <typename Pred>
bool eventually(Pred done, std::chrono::seconds limit = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

// With nothing queued and an instance free, run() executes on the
// caller's thread: it finishes while the only worker is still held.
TEST(OverlayServiceInline, RunCompletesWhileTheOnlyWorkerIsHeld) {
  rt::ServiceOptions options;
  options.threads = 1;
  rt::OverlayService service(options);
  WorkerPlug plug(service);

  auto call = std::async(std::launch::async,
                         [&]() { return service.run(dot2_request(0.5, -1.25)); });
  const bool returned =
      call.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  plug.release();
  ASSERT_TRUE(returned) << "run() waited for the held worker";
  const rt::JobResult result = call.get();

  EXPECT_EQ(output_bits(result.run), dot2_reference_bits(0.5, -1.25));
  EXPECT_EQ(result.queue_seconds, 0.0);
  bool saw_queue_wait = false;
  bool saw_front_end = false;
  double stage_sum = 0;
  for (const vcgra::telemetry::StageTiming& stage : result.stages) {
    stage_sum += stage.seconds;
    saw_front_end = saw_front_end || stage.name == "front_end";
    if (stage.name != "queue.wait") continue;
    saw_queue_wait = true;
    EXPECT_EQ(stage.seconds, 0.0);
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_front_end);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_LE(stage_sum, result.latency_seconds);
  EXPECT_EQ(result.batch_size, 1);

  service.wait_idle();
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.scheduler.assignments, 1u);
}

// A run() arriving behind a queued submit() must not overtake it: it
// queues too, and completes only after the held worker is released.
TEST(OverlayServiceInline, RunQueuesBehindAQueuedSubmit) {
  rt::ServiceOptions options;
  options.threads = 1;
  rt::OverlayService service(options);
  WorkerPlug plug(service);

  std::future<rt::JobResult> queued = service.submit(dot2_request(0.5, -1.25));
  std::atomic<bool> released{false};
  std::atomic<bool> finished_before_release{false};
  auto call = std::async(std::launch::async, [&]() {
    rt::JobResult result = service.run(dot2_request(0.5, -1.25));
    if (!released.load()) finished_before_release = true;
    return result;
  });
  // Both jobs are counted at admission; wait for the run() to be queued.
  // (No early return before the release: `call` would wait forever.)
  EXPECT_TRUE(eventually([&]() { return service.stats().jobs_submitted == 2; }));
  EXPECT_EQ(call.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  released = true;
  plug.release();

  const rt::JobResult first = queued.get();
  const rt::JobResult second = call.get();
  EXPECT_FALSE(finished_before_release.load());
  EXPECT_GT(second.queue_seconds, 0.0);
  const std::vector<std::uint64_t> want = dot2_reference_bits(0.5, -1.25);
  EXPECT_EQ(output_bits(first.run), want);
  EXPECT_EQ(output_bits(second.run), want);

  service.wait_idle();
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

// An inline failure keeps the queued path's contract: the same exception
// type the future used to carry, counted once in jobs_failed, which reads
// the service registry's service.jobs_failed counter.
TEST(OverlayServiceInline, FailedInlineRunThrowsAndIsCounted) {
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);
  const auto failed_metric = [&service]() {
    return service.metrics().snapshot().counters.at("service.jobs_failed");
  };
  const std::uint64_t failed_before = failed_metric();

  rt::JobRequest bad;
  bad.kernel_text = "definitely not a kernel";
  EXPECT_THROW(service.run(std::move(bad)), std::invalid_argument);
  rt::JobRequest ragged = dot2_request(0.5, -1.25);
  ragged.inputs["x1"].pop_back();
  EXPECT_ANY_THROW(service.run(std::move(ragged)));
  const rt::JobResult good = service.run(dot2_request(0.5, -1.25));
  EXPECT_EQ(good.queue_seconds, 0.0);
  EXPECT_EQ(output_bits(good.run), dot2_reference_bits(0.5, -1.25));

  service.wait_idle();
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_failed, 2u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_submitted, stats.jobs_completed + stats.jobs_failed);
  EXPECT_EQ(failed_metric() - failed_before, 2u);
  // The failed lease was returned: every instance is free again.
  EXPECT_TRUE(service.scheduler().has_free_instance());
}

// Mixed traffic: synchronous callers (inline whenever nothing is queued)
// race queued submitters on a 2-worker, 2-instance service, with a share
// of front-end and ragged-stream failures in both populations. Every
// output is bit-exact, every future resolves, the books balance, and
// wait_idle() covers inline runs still in flight.
TEST(OverlayServiceInline, MixedRunAndSubmitTrafficIsExactAndConserved) {
  rt::ServiceOptions options;
  options.threads = 2;
  options.virtual_instances = 2;
  rt::OverlayService service(options);

  // Three configurations on two instances, so the scheduler reconfigures.
  const double coeffs[][2] = {{0.5, -1.25}, {0.75, 2.0}, {-0.125, 3.5}};
  std::vector<std::vector<std::uint64_t>> want;
  for (const auto& c : coeffs) want.push_back(dot2_reference_bits(c[0], c[1]));

  constexpr int kCallers = 4;
  constexpr int kSubmitters = 4;
  constexpr int kJobsPerThread = 24;
  // Job j of a thread: 1 in 6 is unparsable, 1 in 6 has ragged streams.
  const auto make = [&](int j) {
    rt::JobRequest request = dot2_request(coeffs[j % 3][0], coeffs[j % 3][1]);
    if (j % 6 == 1) request.kernel_text = "input ;;; nonsense\n";
    if (j % 6 == 4) request.inputs["x1"].pop_back();
    return request;
  };
  const auto should_fail = [](int j) { return j % 6 == 1 || j % 6 == 4; };

  std::atomic<int> mismatches{0};
  std::atomic<int> wrong_failures{0};
  std::atomic<int> unresolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&]() {
      for (int j = 0; j < kJobsPerThread; ++j) {
        try {
          const rt::JobResult result = service.run(make(j));
          if (should_fail(j)) ++wrong_failures;
          if (output_bits(result.run) != want[j % 3]) ++mismatches;
        } catch (...) {
          if (!should_fail(j)) ++wrong_failures;
        }
      }
    });
  }
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&]() {
      std::vector<std::future<rt::JobResult>> futures;
      for (int j = 0; j < kJobsPerThread; ++j) {
        futures.push_back(service.submit(make(j)));
      }
      for (int j = 0; j < kJobsPerThread; ++j) {
        if (futures[j].wait_for(std::chrono::seconds(120)) !=
            std::future_status::ready) {
          ++unresolved;
          continue;
        }
        try {
          const rt::JobResult result = futures[j].get();
          if (should_fail(j)) ++wrong_failures;
          if (output_bits(result.run) != want[j % 3]) ++mismatches;
        } catch (...) {
          if (!should_fail(j)) ++wrong_failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(wrong_failures.load(), 0);
  EXPECT_EQ(unresolved.load(), 0);

  constexpr std::uint64_t kTotal = (kCallers + kSubmitters) * kJobsPerThread;
  std::uint64_t expect_failed = 0;
  for (int j = 0; j < kJobsPerThread; ++j) expect_failed += should_fail(j);
  expect_failed *= kCallers + kSubmitters;
  service.wait_idle();
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kTotal);
  EXPECT_EQ(stats.jobs_failed, expect_failed);
  EXPECT_EQ(stats.jobs_completed, kTotal - expect_failed);

  // wait_idle() covers inline runs: called while a long inline job is in
  // flight, it returns only once that job's books are settled.
  const std::uint64_t admitted = stats.jobs_submitted;
  rt::JobResult late_result;
  std::thread late([&]() {
    late_result = service.run(dot2_request(0.5, -1.25, std::size_t{1} << 19));
  });
  const bool late_admitted = eventually(
      [&]() { return service.stats().jobs_submitted == admitted + 1; });
  service.wait_idle();
  const rt::ServiceStats idle = service.stats();
  late.join();
  ASSERT_TRUE(late_admitted);
  EXPECT_EQ(late_result.queue_seconds, 0.0) << "the late job did not run inline";
  EXPECT_EQ(idle.jobs_completed, stats.jobs_completed + 1);
  EXPECT_EQ(idle.jobs_submitted, idle.jobs_completed + idle.jobs_failed);
}

// A bad request is rejected with the same exception whether it runs
// inline, as a lone queued job, or as a follower in a fused batch: every
// job meets the checks in the order a lone job always has (canonical-name
// collisions, both encodings, ragged lengths, unknown names, then the
// per-op rules).
TEST(OverlayService, RejectionDoesNotDependOnFusion) {
  // Real names a/b canonicalize to x0/x1, so a stray "x0" stream collides.
  const std::string renamed_kernel =
      "input a; input b;\nparam c = 0.5;\nt = mul(a, c);\ny = add(t, b);\n"
      "output y;\n";
  const auto bits_of = [](std::size_t length) {
    return std::vector<std::uint64_t>(length, 0);
  };
  std::vector<std::pair<std::string, rt::JobRequest>> cases;
  {
    rt::JobRequest request = dot2_request(0.5, -1.25, 48);
    request.inputs["x1"].pop_back();
    request.inputs["zz"] = std::vector<double>(48, 1.0);
    cases.emplace_back("ragged and unknown", std::move(request));
  }
  {
    rt::JobRequest request;
    request.kernel_text = renamed_kernel;
    request.input_bits["a"] = bits_of(48);
    request.input_bits["x0"] = bits_of(48);
    request.input_bits["b"] = bits_of(48);
    cases.emplace_back("raw bits collide", std::move(request));
  }
  {
    rt::JobRequest request;
    request.kernel_text = renamed_kernel;
    request.inputs["a"] = std::vector<double>(48, 1.0);
    request.inputs["x0"] = std::vector<double>(48, 1.0);
    request.input_bits["b"] = bits_of(48);
    cases.emplace_back("doubles collide", std::move(request));
  }
  {
    rt::JobRequest request = dot2_request(0.5, -1.25, 48);
    request.input_bits["x0"] = bits_of(48);
    cases.emplace_back("both encodings", std::move(request));
  }
  {
    rt::JobRequest request = dot2_request(0.5, -1.25, 48);
    request.inputs["zz"] = std::vector<double>(48, 1.0);
    cases.emplace_back("unknown", std::move(request));
  }
  {
    rt::JobRequest request = dot2_request(0.5, -1.25, 48);
    request.inputs.erase("x1");
    cases.emplace_back("missing operand", std::move(request));
  }

  struct Rejection {
    std::string type;
    std::string what;
  };
  const auto rejection = [](auto&& fn) -> Rejection {
    try {
      fn();
    } catch (const std::exception& error) {
      return {typeid(error).name(), error.what()};
    }
    return {"accepted", ""};
  };
  const auto healthy_lead = [&](const rt::JobRequest& bad) {
    rt::JobRequest lead;
    lead.kernel_text = bad.kernel_text;
    if (bad.kernel_text == renamed_kernel) {
      lead.inputs["a"] = std::vector<double>(48, 1.0);
      lead.inputs["b"] = std::vector<double>(48, 2.0);
    } else {
      lead.inputs = ramp_inputs(48);
    }
    return lead;
  };

  rt::ServiceOptions options;
  options.threads = 1;
  rt::OverlayService service(options);
  std::uint64_t expect_failed = 0;
  for (const auto& [label, bad] : cases) {
    SCOPED_TRACE(label);
    const Rejection inline_run = rejection([&] { service.run(rt::JobRequest(bad)); });
    // The worker drops its share of a failed future's exception when it
    // finishes the drain. Waiting for that before reading what() gives the
    // read a visible order after it (the exception's own reference count
    // lives in the uninstrumented C++ runtime, out of TSan's sight).
    std::future<rt::JobResult> lone_future = service.submit(rt::JobRequest(bad));
    service.wait_idle();
    const Rejection lone = rejection([&] { lone_future.get(); });

    std::future<rt::JobResult> lead_future;
    std::future<rt::JobResult> follower_future;
    {
      WorkerPlug plug(service);
      lead_future = service.submit(healthy_lead(bad));
      follower_future = service.submit(rt::JobRequest(bad));
    }
    service.wait_idle();
    const rt::JobResult lead = lead_future.get();
    EXPECT_EQ(lead.batch_size, 2) << "the bad job did not ride a fused batch";
    const Rejection fused = rejection([&] { follower_future.get(); });
    expect_failed += 3;

    EXPECT_NE(inline_run.type, "accepted");
    EXPECT_EQ(lone.type, inline_run.type);
    EXPECT_EQ(lone.what, inline_run.what);
    EXPECT_EQ(fused.type, inline_run.type);
    EXPECT_EQ(fused.what, inline_run.what);
  }
  service.wait_idle();
  EXPECT_EQ(service.stats().jobs_failed, expect_failed);
}

// Two kernel texts can share one configuration while the same real name
// means different streams in each (alpha renaming). A fused follower
// must then resolve its own names rather than borrow the lead's table.
TEST(OverlayService, FusedFollowerWithRenamedKernelResolvesItsOwnNames) {
  const std::string lead_kernel =
      "input x; input y;\nparam c = 0.5;\nt = mul(x, c);\nz = add(t, y);\n"
      "output z;\n";
  const std::string follower_kernel =
      "input y; input x;\nparam c = 0.5;\nt = mul(y, c);\nz = add(t, x);\n"
      "output z;\n";
  const auto request = [](const std::string& kernel) {
    rt::JobRequest job;
    job.kernel_text = kernel;
    job.inputs["x"] = {1.0, 2.0, 3.0};
    job.inputs["y"] = {-8.0, 16.0, 0.25};
    return job;
  };
  rt::ServiceOptions options;
  options.threads = 1;
  rt::OverlayService service(options);
  const rt::JobResult alone = service.run(request(follower_kernel));

  std::future<rt::JobResult> lead;
  std::future<rt::JobResult> follower;
  {
    WorkerPlug plug(service);
    lead = service.submit(request(lead_kernel));
    follower = service.submit(request(follower_kernel));
  }
  EXPECT_EQ(lead.get().batch_size, 2) << "the renamed kernel did not fuse";
  const rt::JobResult fused = follower.get();
  EXPECT_EQ(output_bits(fused.run, "z"), output_bits(alone.run, "z"));
}

// --- reconfiguration pricing -------------------------------------------------

namespace {

/// Three structures (2-tap dot, 3-tap dot, 3-sample MAC) on one fabric,
/// each specialized for `sets` seeded coefficient sets up front. Keys are
/// synthetic ("S<s>" / "S<s>|<k>"): the scheduler only compares them.
struct SchedulerCorpus {
  std::vector<std::string> structure_keys;
  std::vector<std::vector<std::string>> config_keys;
  std::vector<std::vector<std::shared_ptr<const ov::Compiled>>> compiled;
};

SchedulerCorpus scheduler_corpus(int sets, std::uint64_t seed) {
  const std::string kernels[] = {
      dot2_kernel(1.0, 2.0),
      "input x0; input x1; input x2;\n"
      "param c0 = 1; param c1 = 2; param c2 = 3;\n"
      "t0 = mul(x0, c0); t1 = mul(x1, c1); t2 = mul(x2, c2);\n"
      "s0 = add(t0, t1); y = add(s0, t2);\noutput y;\n",
      mac_kernel(3)};
  const ov::OverlayArch arch;
  vc::Rng rng(seed);
  SchedulerCorpus corpus;
  for (std::size_t s = 0; s < std::size(kernels); ++s) {
    const ov::ParsedKernel parsed = ov::parse_kernel_symbolic(kernels[s]);
    const ov::CompiledStructure structure =
        ov::compile_structure(parsed.dfg, arch, 1);
    corpus.structure_keys.push_back(vc::strprintf("S%zu", s));
    corpus.config_keys.emplace_back();
    corpus.compiled.emplace_back();
    for (int k = 0; k < sets; ++k) {
      ov::ParamBinding binding;
      for (const auto& [name, value] : parsed.params) {
        binding[name] = 8.0 * rng.next_double() - 4.0;
      }
      corpus.config_keys.back().push_back(vc::strprintf("S%zu|%d", s, k));
      corpus.compiled.back().push_back(std::make_shared<const ov::Compiled>(
          ov::specialize(structure, binding)));
    }
  }
  return corpus;
}

}  // namespace

// Reference price: the diff of the full register_words() vectors, the
// definition the in-place RegisterDiffCostModel must match.
double register_diff_reference(const ov::Compiled* from, const ov::Compiled& to) {
  constexpr double kWordWriteSeconds = 100e-9;
  const std::vector<std::uint32_t> to_words = to.settings.register_words(to.arch);
  if (from == nullptr || rt::arch_signature(from->arch) != rt::arch_signature(to.arch)) {
    return static_cast<double>(to_words.size()) * kWordWriteSeconds;
  }
  const std::vector<std::uint32_t> from_words =
      from->settings.register_words(from->arch);
  const std::size_t common_words = std::min(from_words.size(), to_words.size());
  std::size_t changed = std::max(from_words.size(), to_words.size()) - common_words;
  for (std::size_t i = 0; i < common_words; ++i) {
    if (from_words[i] != to_words[i]) ++changed;
  }
  return static_cast<double>(changed) * kWordWriteSeconds;
}

TEST(ReconfigCostModels, RegisterDiffMatchesWordVectorReference) {
  const SchedulerCorpus corpus = scheduler_corpus(4, 11);
  std::vector<std::shared_ptr<const ov::Compiled>> all;
  for (const auto& sets : corpus.compiled) all.insert(all.end(), sets.begin(), sets.end());
  // Fabric mismatches: the same kernel on another format, another grid.
  ov::OverlayArch half;
  half.format = vcgra::softfloat::FpFormat::half_like();
  ov::OverlayArch wide;
  wide.rows = 6;
  wide.cols = 6;
  all.push_back(std::make_shared<const ov::Compiled>(
      ov::compile_kernel(dot2_kernel(1.0, 2.0), half, 1)));
  all.push_back(std::make_shared<const ov::Compiled>(
      ov::compile_kernel(dot2_kernel(1.0, 2.0), wide, 1)));

  rt::RegisterDiffCostModel model;
  for (const auto& to : all) {
    EXPECT_EQ(model.switch_seconds(nullptr, *to),
              register_diff_reference(nullptr, *to));
    for (const auto& from : all) {
      EXPECT_EQ(model.switch_seconds(from.get(), *to),
                register_diff_reference(from.get(), *to));
    }
  }
  // A fabric mismatch is priced as a blank load of the target.
  EXPECT_EQ(model.switch_seconds(all[all.size() - 2].get(), *all[0]),
            model.switch_seconds(nullptr, *all[0]));
  EXPECT_EQ(model.switch_seconds(all.back().get(), *all[0]),
            model.switch_seconds(nullptr, *all[0]));
}

TEST(ReconfigCostModels, ScgMemoMatchesBackendAndStaysBounded) {
  const SchedulerCorpus corpus = scheduler_corpus(2, 5);
  const ov::Compiled& a = *corpus.compiled[0][0];
  const ov::Compiled& b = *corpus.compiled[0][1];
  const ov::Compiled& c = *corpus.compiled[1][0];
  const ov::Compiled& d = *corpus.compiled[2][1];
  const ov::ParameterizedBackend backend(a.arch);

  rt::ScgCostModel model;
  const std::pair<const ov::Compiled*, const ov::Compiled*> swaps[] = {
      {&a, &b}, {&b, &a}, {&a, &c}, {&c, &d}, {&a, &b}, {&d, &a}, {&b, &a}};
  for (const auto& [from, to] : swaps) {
    EXPECT_EQ(model.switch_seconds(from, *to),
              backend.reconfigure_cost(from->settings, to->settings).hwicap_seconds);
  }
  EXPECT_EQ(model.memo_size(), 5u);  // the two repeats were memo hits
  EXPECT_EQ(model.switch_seconds(nullptr, c),
            backend.full_config_cost(c.settings).hwicap_seconds);

  // The bound, on a fabric small enough to price thousands of distinct
  // swaps quickly: a 1-PE kernel over 80 coefficients on a 2x2 grid.
  ov::OverlayArch tiny;
  tiny.rows = 2;
  tiny.cols = 2;
  tiny.format = vcgra::softfloat::FpFormat{4, 7};
  const ov::ParsedKernel parsed =
      ov::parse_kernel_symbolic("input x;\nparam c = 1;\ny = mul(x, c);\noutput y;\n");
  const ov::CompiledStructure structure = ov::compile_structure(parsed.dfg, tiny, 1);
  std::vector<ov::Compiled> coefficients;
  for (int k = 0; k < 80; ++k) {
    coefficients.push_back(ov::specialize(structure, {{"c", 0.125 * (k + 1)}}));
  }
  const ov::ParameterizedBackend tiny_backend(tiny);
  std::size_t priced = 0;
  for (const ov::Compiled& from : coefficients) {
    for (const ov::Compiled& to : coefficients) {
      const double seconds = model.switch_seconds(&from, to);
      if (++priced % 97 == 0) {
        EXPECT_EQ(seconds, tiny_backend.reconfigure_cost(from.settings, to.settings)
                               .hwicap_seconds);
      }
      ASSERT_LE(model.memo_size(), 5u + rt::ScgCostModel::kMemoLimit);
    }
  }
  EXPECT_GT(priced, rt::ScgCostModel::kMemoLimit);
}

// A seeded 2000-acquire sequence over 3 structures x 80 coefficient sets
// on 2 instances: every selection (instance, reconfigured, param-only,
// modeled price) and the final SchedulerStats are pinned to golden
// values recorded with the earlier memoized scheduler, so pricing
// refactors cannot shift a single choice.
TEST(ReconfigScheduler, SeededSequenceMatchesGoldenAssignments) {
  const SchedulerCorpus corpus = scheduler_corpus(80, 0x5c4edULL);
  rt::ReconfigScheduler scheduler(
      2, std::make_shared<rt::RegisterDiffCostModel>());
  vc::Rng rng(0xacc01dULL);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint64_t value) {
    digest ^= value;
    digest *= 0x100000001b3ULL;
  };
  int held = -1;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t s = rng.next_below(3);
    // Half the traffic on a 4-set hot subset, so exact hits occur too.
    const std::size_t k = rng.next_bool() ? rng.next_below(4) : rng.next_below(80);
    const rt::Assignment assignment = scheduler.acquire(
        corpus.config_keys[s][k], corpus.structure_keys[s], corpus.compiled[s][k]);
    mix(static_cast<std::uint64_t>(assignment.instance));
    mix(assignment.reconfigured ? 1 : 0);
    mix(assignment.param_only ? 1 : 0);
    mix(static_cast<std::uint64_t>(std::llround(assignment.reconfig_seconds * 1e9)));
    if (held >= 0) scheduler.release(held);
    held = -1;
    if (rng.next_bool()) {
      held = assignment.instance;  // stays busy across the next acquire
    } else {
      scheduler.release(assignment.instance);
    }
  }
  if (held >= 0) scheduler.release(held);

  const rt::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(digest, 0xc7eaa584a98de61cULL);
  EXPECT_EQ(stats.assignments, 2000u);
  EXPECT_EQ(stats.reconfigurations, 1922u);
  EXPECT_EQ(stats.param_respecializations, 850u);
  EXPECT_EQ(stats.reconfigurations_avoided, 78u);
  EXPECT_NEAR(stats.modeled_reconfig_seconds, 0.0024883999999999744, 1e-15);
  EXPECT_NEAR(stats.param_reconfig_seconds, 0.00044260000000000507, 1e-15);
  EXPECT_NEAR(stats.avoided_reconfig_seconds, 0.00044459999999999926, 1e-15);
}

// --- front-end keys ----------------------------------------------------------

// Store records embed the structure key, so the printf-free key builders
// must stay byte-identical to the printf forms they replaced.
TEST(OverlayKey, KeysMatchThePrintfForms) {
  const auto printf_arch = [](const ov::OverlayArch& arch) {
    return vc::strprintf(
        "%dx%d t%d s%d c%d fp(%d,%d) pe[%d%d%d%d%d]", arch.rows, arch.cols,
        arch.tracks, arch.settings_bits, arch.counter_bits, arch.format.we,
        arch.format.wf, arch.pe.mul ? 1 : 0, arch.pe.add ? 1 : 0,
        arch.pe.sub ? 1 : 0, arch.pe.mac ? 1 : 0, arch.pe.pass ? 1 : 0);
  };
  const auto printf_params = [](const ov::ParamBinding& binding) {
    std::string signature;
    for (const auto& [name, value] : binding) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      signature += name + vc::strprintf("=%016llx;",
                                        static_cast<unsigned long long>(bits));
    }
    return signature;
  };

  std::vector<ov::OverlayArch> archs(4);
  archs[1].rows = 6;
  archs[1].cols = 6;
  archs[1].format = vcgra::softfloat::FpFormat::half_like();
  archs[2].rows = 1;
  archs[2].cols = 13;
  archs[2].tracks = -1;
  archs[2].counter_bits = 0;
  archs[2].pe.sub = false;
  archs[2].pe.pass = false;
  archs[3].rows = std::numeric_limits<int>::max();
  archs[3].cols = std::numeric_limits<int>::min();
  archs[3].settings_bits = 64;
  archs[3].format = vcgra::softfloat::FpFormat::single_like();
  archs[3].pe = ov::PeCapability{false, true, false, true, false};
  const std::uint64_t seeds[] = {0, 1, 42, 90002,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const ov::OverlayArch& arch : archs) {
    EXPECT_EQ(rt::arch_signature(arch), printf_arch(arch));
    for (const std::uint64_t seed : seeds) {
      EXPECT_EQ(rt::structure_key("y = mul(x0, c0);", arch, seed),
                printf_arch(arch) +
                    vc::strprintf("|seed=%llu|",
                                  static_cast<unsigned long long>(seed)) +
                    "y = mul(x0, c0);");
    }
    for (const ov::OverlayArch& other : archs) {
      // The cost models compare fabrics with ==, not by signature.
      EXPECT_EQ(arch == other, printf_arch(arch) == printf_arch(other));
    }
  }

  const auto from_bits = [](std::uint64_t bits) {
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, -2.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      from_bits(0x7ff8000000000001ULL),  // quiet NaN with a payload
      from_bits(0x7ff0000000000abcULL),  // signalling NaN with a payload
      from_bits(0xfff80000deadbeefULL)}; // negative NaN with a payload
  vc::Rng rng(0x5169);
  for (int i = 0; i < 500; ++i) values.push_back(from_bits(rng()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const ov::ParamBinding one = {{"c0", values[i]}};
    EXPECT_EQ(ov::param_signature(one), printf_params(one)) << i;
    const ov::ParamBinding three = {{"c0", values[i]},
                                    {"c1", values[(i + 1) % values.size()]},
                                    {"gain", values[(i * 7) % values.size()]}};
    EXPECT_EQ(ov::param_signature(three), printf_params(three)) << i;
  }
  EXPECT_EQ(ov::param_signature({}), "");
}

// --- interned front end ------------------------------------------------------

namespace {

/// One spelling of a two-coefficient kernel: its text and the real names
/// of its params, inputs and output.
struct Spelling {
  std::string text;
  std::string params[2];
  std::string inputs[2];
  std::string output;
};

/// Two alpha-renamings of dot2_kernel's structure.
std::vector<Spelling> dot2_spellings() {
  return {{dot2_kernel(0.5, -1.25), {"c0", "c1"}, {"x0", "x1"}, "y"},
          {"input lhs; input rhs;\n"
           "param w_a = 0.5; param w_b = -1.25;\n"
           "prod_a = mul(lhs, w_a); prod_b = mul(rhs, w_b);\n"
           "acc = add(prod_a, prod_b);\n"
           "output acc;\n",
           {"w_a", "w_b"},
           {"lhs", "rhs"},
           "acc"}};
}

rt::JobRequest spelled_request(const Spelling& spelling, std::size_t length = 16) {
  rt::JobRequest request;
  request.kernel_text = spelling.text;
  const auto ramp = ramp_inputs(length);
  request.inputs[spelling.inputs[0]] = ramp.at("x0");
  request.inputs[spelling.inputs[1]] = ramp.at("x1");
  return request;
}

/// Checks jobs against a from-scratch derivation: the keys a fresh
/// cache_keys() builds and the outputs of a direct compile.
class MemoOracle {
 public:
  /// Runs `request` alone on `service`, which must have one instance:
  /// after a lone run() that instance holds the job's own keys.
  void expect_run(rt::OverlayService& service, const rt::JobRequest& request,
                  const std::string& output) {
    const rt::JobResult result = service.run(request);
    const ov::ParsedKernel parsed = ov::parse_kernel_symbolic(request.kernel_text);
    const rt::CacheKeys keys =
        rt::cache_keys(parsed, request.arch, request.seed,
                       ov::merge_params(parsed.params, request.params));
    std::vector<std::pair<std::string, std::string>> loaded;
    service.scheduler().for_each_free_loaded(
        [&loaded](const std::string& config_key, const std::string& structure_key) {
          loaded.emplace_back(config_key, structure_key);
        });
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].first, keys.full());
    EXPECT_EQ(loaded[0].second, keys.structure);
    const std::vector<std::uint64_t> bits = output_bits(result.run, output);
    EXPECT_FALSE(bits.empty());
    EXPECT_EQ(bits, reference(request, output));
  }

  std::vector<std::uint64_t> reference(const rt::JobRequest& request,
                                       const std::string& output) {
    const std::string key = request.kernel_text + rt::arch_signature(request.arch) +
                            std::to_string(request.seed);
    auto it = structures_.find(key);
    if (it == structures_.end()) {
      it = structures_
               .emplace(key, ov::compile_structure(
                                 ov::parse_kernel_symbolic(request.kernel_text).dfg,
                                 request.arch, request.seed))
               .first;
    }
    const ov::Simulator direct(ov::specialize(it->second, request.params));
    return output_bits(direct.run_doubles(request.inputs), output);
  }

 private:
  std::map<std::string, ov::CompiledStructure> structures_;
};

rt::ServiceOptions one_instance() {
  rt::ServiceOptions options;
  options.threads = 1;
  options.virtual_instances = 1;
  return options;
}

}  // namespace

// Random requests over two spellings, two archs, two seeds and params,
// each followed by its twins: the same request but for the seed, the
// arch, the spelling, or one param's sign (+0.0 vs -0.0) or lowest bit.
// Every job, first sight or repeat, carries the keys a from-scratch
// derivation gives.
TEST(OverlayServiceMemo, KeysMatchAFreshDerivationOnFirstSightAndRepeat) {
  rt::OverlayService service(one_instance());
  const std::vector<Spelling> spellings = dot2_spellings();
  ov::OverlayArch other;
  other.cols = 5;
  other.format = vcgra::softfloat::FpFormat::single_like();
  const std::vector<ov::OverlayArch> archs = {ov::OverlayArch{}, other};
  const double twins[][2] = {{0.0, -0.0},
                             {0.75, std::nextafter(0.75, 1.0)},
                             {-1.25, std::nextafter(-1.25, 0.0)}};
  struct Pick {
    std::size_t spelling, arch;
    std::uint64_t seed;
    int twin[2];  // index into twins; -1 leaves the param at its default
    int member[2];
  };
  const auto request_of = [&](const Pick& pick) {
    const Spelling& spelling = spellings[pick.spelling];
    rt::JobRequest request = spelled_request(spelling);
    request.arch = archs[pick.arch];
    request.seed = pick.seed;
    for (int p = 0; p < 2; ++p) {
      if (pick.twin[p] >= 0) {
        request.params[spelling.params[p]] = twins[pick.twin[p]][pick.member[p]];
      }
    }
    return std::make_pair(request, spelling.output);
  };

  vc::Rng rng(0x1e7e);
  std::vector<std::pair<rt::JobRequest, std::string>> pool;
  for (int i = 0; i < 10; ++i) {
    Pick pick{rng.next_below(2), rng.next_below(2), 1 + rng.next_below(2), {}, {}};
    for (int p = 0; p < 2; ++p) {
      pick.twin[p] = static_cast<int>(rng.next_below(4)) - 1;
      pick.member[p] = static_cast<int>(rng.next_below(2));
    }
    std::vector<Pick> variants(6, pick);
    variants[1].seed = 3 - pick.seed;
    variants[2].arch = 1 - pick.arch;
    variants[3].spelling = 1 - pick.spelling;
    for (int p = 0; p < 2; ++p) {
      Pick& twin = variants[4 + p];
      if (twin.twin[p] < 0) twin.twin[p] = p;
      twin.member[p] = 1 - pick.member[p];
    }
    for (const Pick& variant : variants) pool.push_back(request_of(variant));
  }

  MemoOracle oracle;
  for (const auto& [request, output] : pool) {
    oracle.expect_run(service, request, output);
  }
  for (int i = 0; i < 200; ++i) {
    const auto& [request, output] = pool[rng.next_below(pool.size())];
    oracle.expect_run(service, request, output);
  }
  EXPECT_EQ(service.stats().jobs_failed, 0u);
}

TEST(OverlayServiceMemo, UnknownParamFailsEverySubmission) {
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);
  // The known half of the bad requests below, interned first.
  rt::JobRequest known = dot2_request(0.5, -1.25);
  known.params = {{"c0", 0.25}};
  const std::vector<std::uint64_t> expected = dot2_reference_bits(0.25, -1.25);
  EXPECT_EQ(output_bits(service.run(known).run), expected);

  // Unknown names sorting before, between and after the real ones.
  std::size_t failures = 0;
  for (const char* unknown : {"a", "c0x", "gain"}) {
    rt::JobRequest bad = known;
    bad.params[unknown] = 2.0;
    for (int i = 0; i < 3; ++i) {
      EXPECT_THROW(service.run(bad), std::invalid_argument) << unknown;
      EXPECT_THROW(service.submit(bad).get(), std::invalid_argument) << unknown;
      failures += 2;
    }
  }
  EXPECT_EQ(output_bits(service.run(known).run), expected);
  EXPECT_EQ(service.stats().jobs_failed, failures);
}

// More distinct requests than the memo keeps, so it is dropped at its
// bound, then the first ones again: the same keys and bits throughout.
TEST(OverlayServiceMemo, MemoDroppedAtItsBoundGivesTheSameAnswers) {
  rt::OverlayService service(one_instance());
  std::vector<rt::JobRequest> requests;
  for (int i = 0; i < 1100; ++i) {
    rt::JobRequest request = dot2_request(0.5, -1.25, 8);
    request.params = {{"c0", 0.5 + std::ldexp(i, -12)}};
    requests.push_back(std::move(request));
  }
  MemoOracle oracle;
  for (const rt::JobRequest& request : requests) {
    oracle.expect_run(service, request, "y");
  }
  for (std::size_t i = 0; i < 48; ++i) {
    oracle.expect_run(service, requests[i], "y");
    oracle.expect_run(service, requests[requests.size() - 1 - i], "y");
  }
  EXPECT_EQ(service.stats().jobs_failed, 0u);
}

// Four clients submit and run repeated and fresh requests at once, with
// a bad one in the mix: every output is bit-exact and every bad request
// fails.
TEST(OverlayServiceMemo, ConcurrentClientsMixingRepeatedAndFreshRequests) {
  constexpr int kClients = 4;
  constexpr int kFreshPerClient = 24;
  rt::ServiceOptions options;
  options.threads = 2;
  rt::OverlayService service(options);
  const std::vector<Spelling> spellings = dot2_spellings();

  struct Case {
    rt::JobRequest request;
    std::string output;
    std::vector<std::uint64_t> expected;
  };
  MemoOracle oracle;
  const auto make_case = [&](const Spelling& spelling, std::uint64_t seed,
                             double c0) {
    Case c{spelled_request(spelling), spelling.output, {}};
    c.request.seed = seed;
    c.request.params = {{spelling.params[0], c0}};
    c.expected = oracle.reference(c.request, c.output);
    return c;
  };
  std::vector<Case> repeated;
  for (int i = 0; i < 6; ++i) {
    repeated.push_back(make_case(spellings[i % 2], 1 + i % 3 / 2, 0.25 * i));
  }
  std::vector<std::vector<Case>> fresh(kClients);
  for (int t = 0; t < kClients; ++t) {
    for (int i = 0; i < kFreshPerClient; ++i) {
      fresh[t].push_back(make_case(spellings[(t + i) % 2], 1,
                                   -0.5 - std::ldexp(t * kFreshPerClient + i, -12)));
    }
  }
  rt::JobRequest bad = spelled_request(spellings[0]);
  bad.params = {{"gain", 2.0}};

  std::atomic<int> mismatches{0};
  std::atomic<int> bad_failures{0};
  const auto client = [&](int t) {
    std::vector<std::pair<const Case*, std::future<rt::JobResult>>> in_flight;
    const auto check = [&](const Case& c, const rt::JobResult& result) {
      if (output_bits(result.run, c.output) != c.expected) ++mismatches;
    };
    for (int i = 0; i < 2 * kFreshPerClient; ++i) {
      const Case& c = i % 2 == 0 ? fresh[t][i / 2]
                                 : repeated[(t + i) % repeated.size()];
      if (i % 3 == 0) {
        check(c, service.run(c.request));
      } else {
        in_flight.emplace_back(&c, service.submit(c.request));
      }
      if (i % 8 == 7) {
        try {
          service.submit(bad).get();
        } catch (const std::invalid_argument&) {
          ++bad_failures;
        }
      }
      if (in_flight.size() >= 4) {
        for (auto& [done, future] : in_flight) check(*done, future.get());
        in_flight.clear();
      }
    }
    for (auto& [done, future] : in_flight) check(*done, future.get());
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) clients.emplace_back(client, t);
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(bad_failures.load(), kClients * (2 * kFreshPerClient / 8));
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_failed, static_cast<std::uint64_t>(bad_failures.load()));
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::uint64_t>(kClients * 2 * kFreshPerClient));
}

// --- spent-job slots ---------------------------------------------------------
//
// A worker parks each queued job it finished on the service's spent list,
// and the next submit() takes the list and reuses the job parked last as
// the new job's slot. A reused slot carries nothing from its last job.

namespace {

rt::JobRequest mac_request(int count, std::size_t length = 32) {
  rt::JobRequest request;
  request.kernel_text = mac_kernel(count);
  request.inputs = single_input(length);
  return request;
}

std::vector<std::uint64_t> direct_bits(const rt::JobRequest& request) {
  const ov::Simulator direct(ov::compile_kernel(request.kernel_text, {}, 1));
  return output_bits(direct.run_doubles(request.inputs));
}

}  // namespace

TEST(OverlayServiceSpent, GoodJobInAFailedJobsSlotCarriesNoError) {
  rt::OverlayService service(one_instance());
  rt::JobRequest bad;
  bad.kernel_text = "definitely not a kernel";
  EXPECT_THROW(service.submit(std::move(bad)).get(), std::invalid_argument);
  service.wait_idle();  // the failed job is parked

  const rt::JobResult good = service.submit(dot2_request(0.5, -1.25)).get();
  EXPECT_EQ(output_bits(good.run), dot2_reference_bits(0.5, -1.25));
  service.wait_idle();
  const rt::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

// A queue head overtaken once by a warm-overlay job is parked last; the
// next head, in its slot, must be overtakable the full 64 times
// (kMaxHeadDeferrals) before it runs regardless of affinity.
TEST(OverlayServiceSpent, DeferredHeadsSlotRestartsItsDeferralCount) {
  rt::OverlayService service(one_instance());
  service.run(dot2_request(0.5, -1.25));  // the instance holds dot2

  std::future<rt::JobResult> cold;
  std::future<rt::JobResult> warm;
  {
    WorkerPlug plug(service);
    cold = service.submit(mac_request(4));
    rt::JobRequest other_params = dot2_request(0.5, -1.25);
    other_params.params["c0"] = 0.75;
    warm = service.submit(std::move(other_params));
  }
  // The warm job ran first, on dot2's structure; the cold head after it.
  EXPECT_TRUE(warm.get().param_respecialized);
  const rt::JobResult deferred = cold.get();
  EXPECT_TRUE(deferred.reconfigured);
  EXPECT_FALSE(deferred.param_respecialized);
  service.wait_idle();  // the deferred head is parked last

  // The new head (dot2, which no instance holds) takes the deferred head's
  // slot. 64 jobs on the loaded mac structure, each with its own
  // coefficient, queue behind it: each drain picks the first of them over
  // the head, so a fresh count lets all 64 run first, each a coefficient
  // swap. A count carried over would let the head run before the last.
  std::future<rt::JobResult> head;
  std::vector<std::future<rt::JobResult>> followers;
  {
    WorkerPlug plug(service);
    head = service.submit(dot2_request(0.5, -1.25));
    for (int i = 0; i < 64; ++i) {
      rt::JobRequest request = mac_request(4);
      request.params["c"] = 1.0 + i;
      followers.push_back(service.submit(std::move(request)));
    }
  }
  const rt::JobResult last = head.get();
  EXPECT_TRUE(last.reconfigured);
  EXPECT_FALSE(last.param_respecialized);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    EXPECT_TRUE(followers[i].get().param_respecialized) << "follower " << i;
  }
}

TEST(OverlayServiceSpent, NewKernelTextInAReusedSlotGetsItsOwnParseAndKeys) {
  rt::OverlayService service(one_instance());
  EXPECT_EQ(output_bits(service.submit(dot2_request(0.5, -1.25)).get().run),
            dot2_reference_bits(0.5, -1.25));
  service.wait_idle();

  // A first sight of another text in the dot2 job's slot is parsed from
  // its own text.
  const rt::JobRequest mac = mac_request(3);
  EXPECT_EQ(output_bits(service.submit(mac).get().run), direct_bits(mac));
  service.wait_idle();

  // A text that fails to parse, in the mac job's slot, has no keys, so it
  // cannot fuse a queued job of the mac configuration into its failing
  // batch.
  std::future<rt::JobResult> failing;
  std::future<rt::JobResult> same;
  {
    WorkerPlug plug(service);
    rt::JobRequest bad = mac;
    bad.kernel_text = "definitely not a kernel";
    failing = service.submit(std::move(bad));
    same = service.submit(mac);
  }
  EXPECT_THROW(failing.get(), std::invalid_argument);
  const rt::JobResult ok = same.get();
  EXPECT_EQ(output_bits(ok.run), direct_bits(mac));
  EXPECT_EQ(ok.batch_size, 1);
}

TEST(OverlayServiceSpent, ReusedSlotTimesTheJobFromItsOwnSubmit) {
  rt::OverlayService service(one_instance());
  service.submit(dot2_request(0.5, -1.25)).get();
  service.wait_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The job's timings must lie inside the client's own submit..result
  // window: a clock carried from the slot's last job would start earlier.
  const vc::WallTimer client;
  const rt::JobResult result = service.submit(dot2_request(0.5, -1.25)).get();
  const double elapsed = client.seconds();
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_LE(result.latency_seconds, elapsed);
  EXPECT_GT(result.queue_seconds, 0.0);
  EXPECT_LE(result.queue_seconds, result.latency_seconds);
}
