#include "vcgra/runtime/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service_internal.hpp"
#include "vcgra/common/timer.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::runtime {

using detail::add_canonical_streams;

namespace {

/// The format-convert hop of a cross-format edge: one batch decode in
/// the producer's format, one batch encode in the consumer's — the same
/// two rounding steps a PE-boundary format bridge would pay, and the
/// only double round trip a graph ever performs.
void convert_edge(const softfloat::FpFormat& from, const softfloat::FpFormat& to,
                  const std::vector<std::uint64_t>& bits,
                  std::vector<std::uint64_t>& out) {
  std::vector<double> values(bits.size());
  softfloat::fp_to_double_n(from, bits.data(), values.data(), bits.size());
  out.resize(bits.size());
  softfloat::fp_from_double_n(to, values.data(), out.data(), values.size());
}

/// A session's feed() must not reach a destroyed service.
void check_service_alive(const std::weak_ptr<const bool>& alive) {
  if (alive.expired()) {
    throw std::logic_error("session fed after its service was destroyed");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Graph admission

std::shared_ptr<const KernelGraph> OverlayService::admit_graph(
    const GraphRequest& request) {
  VCGRA_TRACE_SPAN("graph.admit");
  common::WallTimer admit_timer;
  const std::size_t n = request.stages.size();
  if (n == 0) throw std::invalid_argument("graph has no stages");

  auto graph = std::make_shared<KernelGraph>();
  graph->stages_.reserve(n);  // slot pointers into spec storage must not move
  std::map<std::string, int> index_of;

  for (std::size_t i = 0; i < n; ++i) {
    const GraphStage& spec = request.stages[i];
    if (spec.name.empty()) {
      throw std::invalid_argument("graph stage " + std::to_string(i) +
                                  " has an empty name");
    }
    if (!index_of.emplace(spec.name, static_cast<int>(i)).second) {
      throw std::invalid_argument("duplicate graph stage name '" + spec.name +
                                  "'");
    }
    KernelGraph::Stage stage;
    stage.spec = spec;
    stage.arch = spec.arch.rows > 0 ? spec.arch : request.arch;
    stage.parsed = parse_cached(spec.kernel_text);
    stage.binding = overlay::merge_params(stage.parsed->params, spec.params);
    stage.keys = cache_keys(*stage.parsed, stage.arch, spec.seed, stage.binding);
    stage.config_key = stage.keys.full();

    CacheOutcome outcome;
    stage.compiled = cache_.get_or_specialize(stage.keys, *stage.parsed,
                                              stage.arch, spec.seed,
                                              stage.binding, &outcome);
    stage.structure_hit = outcome.hit || outcome.structure_hit;
    stage.compile_seconds = outcome.compile_seconds;
    stage.specialize_seconds = outcome.specialize_seconds;
    stage.plan = cache_.plan_for(stage.keys, stage.compiled, options_.sim);

    // Real -> canonical name pairs of every declared output, derived once
    // so neither invocation nor edge resolution ever walks the DFG again.
    const auto& real_nodes = stage.parsed->dfg.nodes();
    const auto& canon_nodes = stage.parsed->canonical_dfg.nodes();
    for (const int out : stage.parsed->dfg.outputs()) {
      const std::string& real =
          real_nodes[static_cast<std::size_t>(out)].name;
      const auto dup = std::find_if(
          stage.kept_outputs.begin(), stage.kept_outputs.end(),
          [&](const auto& pair) { return pair.first == real; });
      if (dup == stage.kept_outputs.end()) {
        stage.kept_outputs.emplace_back(
            real, canon_nodes[static_cast<std::size_t>(out)].name);
      }
    }
    graph->stages_.push_back(std::move(stage));
  }

  // External input streams -> plan buffer slots (the admission-time name
  // resolution that makes invocations name-free). A stage meets a job's
  // checks in a job's order and with its messages: canonical-name
  // collisions, a stream given in both encodings, then unknown names.
  for (KernelGraph::Stage& stage : graph->stages_) {
    overlay::PlanExecutor executor(stage.plan);
    const bool canonical = stage.parsed->names_are_canonical;
    const auto add_slot = [&](const std::string& name,
                              KernelGraph::InputSlot slot) {
      slot.buffer = executor.resolve_input(
          canonical ? name : stage.parsed->canonical_name(name));
      stage.slots.push_back(slot);
    };
    try {
      detail::canonical_streams(*stage.parsed, stage.spec.inputs,
                                stage.spec.input_bits);
      for (const auto& [name, stream] : stage.spec.inputs) {
        KernelGraph::InputSlot slot;
        slot.kind = KernelGraph::InputSlot::Kind::kDoubles;
        slot.doubles = &stream;
        add_slot(name, slot);
      }
      for (const auto& [name, stream] : stage.spec.input_bits) {
        KernelGraph::InputSlot slot;
        slot.kind = KernelGraph::InputSlot::Kind::kBits;
        slot.bits = &stream;
        add_slot(name, slot);
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("graph stage '" + stage.spec.name +
                                  "': " + e.what());
    }
  }

  // Edges: validate endpoints, map both ends to canonical names, and
  // append the consumer's edge slot.
  graph->edges_.reserve(request.edges.size());
  for (const GraphEdge& e : request.edges) {
    const auto producer_it = index_of.find(e.producer);
    if (producer_it == index_of.end()) {
      throw std::invalid_argument("graph edge references unknown producer "
                                  "stage '" + e.producer + "'");
    }
    const auto consumer_it = index_of.find(e.consumer);
    if (consumer_it == index_of.end()) {
      throw std::invalid_argument("graph edge references unknown consumer "
                                  "stage '" + e.consumer + "'");
    }
    KernelGraph::Edge edge;
    edge.producer = producer_it->second;
    edge.consumer = consumer_it->second;
    const KernelGraph::Stage& producer =
        graph->stages_[static_cast<std::size_t>(edge.producer)];
    KernelGraph::Stage& consumer =
        graph->stages_[static_cast<std::size_t>(edge.consumer)];

    const auto out_pair = std::find_if(
        producer.kept_outputs.begin(), producer.kept_outputs.end(),
        [&](const auto& pair) { return pair.first == e.output; });
    if (out_pair == producer.kept_outputs.end()) {
      throw std::invalid_argument("graph edge references unknown output '" +
                                  e.output + "' of stage '" + e.producer +
                                  "'");
    }
    edge.canonical_output = out_pair->second;
    edge.canonical_input = consumer.parsed->names_are_canonical
                               ? e.input
                               : consumer.parsed->canonical_name(e.input);
    edge.convert = producer.arch.format != consumer.arch.format;

    KernelGraph::InputSlot slot;
    slot.kind = KernelGraph::InputSlot::Kind::kEdge;
    slot.buffer = overlay::PlanExecutor(consumer.plan)
                      .resolve_input(edge.canonical_input);
    slot.edge = static_cast<int>(graph->edges_.size());
    for (const KernelGraph::InputSlot& prior : consumer.slots) {
      if (prior.buffer == slot.buffer) {
        throw std::invalid_argument("graph stage '" + e.consumer +
                                    "': input stream '" + e.input +
                                    "' is provided more than once");
      }
    }
    consumer.slots.push_back(slot);
    graph->edges_.push_back(std::move(edge));
  }

  // Kahn topological order, lowest stage index first for determinism.
  std::vector<int> indegree(n, 0);
  for (const KernelGraph::Edge& edge : graph->edges_) {
    ++indegree[static_cast<std::size_t>(edge.consumer)];
  }
  std::vector<char> placed(n, 0);
  graph->topo_order_.reserve(n);
  while (graph->topo_order_.size() < n) {
    bool progressed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i] || indegree[i] != 0) continue;
      placed[i] = 1;
      graph->topo_order_.push_back(static_cast<int>(i));
      for (const KernelGraph::Edge& edge : graph->edges_) {
        if (edge.producer == static_cast<int>(i)) {
          --indegree[static_cast<std::size_t>(edge.consumer)];
        }
      }
      progressed = true;
    }
    if (!progressed) {
      throw std::invalid_argument("graph contains a cycle");
    }
  }

  graph->admit_seconds = admit_timer.seconds();
  return graph;
}

// ---------------------------------------------------------------------------
// Graph invocation

GraphResult OverlayService::run_graph(const KernelGraph& graph) {
  // Per-invocation span collector (works with the global tracer off):
  // the sweeps recorded under graph.run become stage_timings, the graph
  // analogue of a job's per-stage breakdown. Nothing reads its tree, so
  // it keeps no child spans.
  telemetry::JobTrace invocation_trace;
  invocation_trace.child_spans = false;
  telemetry::JobTraceScope tracing(&invocation_trace);
  VCGRA_TRACE_SPAN("graph.run");
  common::WallTimer exec_timer;
  GraphResult result;
  const std::vector<KernelGraph::Stage>& stages = graph.stages();
  const std::vector<KernelGraph::Edge>& edges = graph.edges();
  const std::size_t n = stages.size();
  result.stages = static_cast<int>(n);

  // Raw outputs per executed stage, keyed by canonical name — interior
  // results are never translated; only keep_output stages pay the
  // boundary rename, after the whole DAG ran.
  std::vector<std::map<std::string, std::vector<std::uint64_t>>> produced(n);
  // Converted edge buffers, kept alive for their consumer's sweep.
  std::vector<std::vector<std::uint64_t>> converted(edges.size());
  std::vector<char> executed(n, 0);

  const auto ready = [&](std::size_t i) {
    if (executed[i]) return false;
    for (const KernelGraph::Edge& edge : edges) {
      if (edge.consumer == static_cast<int>(i) &&
          !executed[static_cast<std::size_t>(edge.producer)]) {
        return false;
      }
    }
    return true;
  };

  std::size_t remaining = n;
  while (remaining > 0) {
    // One wave: every stage whose producers all ran. Within the wave,
    // stages sharing a configuration key fuse into one executor call (the
    // batch path), up to the service's fairness cap.
    std::vector<int> wave;
    for (std::size_t i = 0; i < n; ++i) {
      if (ready(i)) wave.push_back(static_cast<int>(i));
    }
    std::vector<char> grouped(wave.size(), 0);
    for (std::size_t a = 0; a < wave.size(); ++a) {
      if (grouped[a]) continue;
      std::vector<int> group{wave[a]};
      for (std::size_t b = a + 1; b < wave.size(); ++b) {
        if (grouped[b] || group.size() >= options_.max_batch_jobs) continue;
        if (stages[static_cast<std::size_t>(wave[b])].config_key ==
            stages[static_cast<std::size_t>(wave[a])].config_key) {
          group.push_back(wave[b]);
          grouped[b] = 1;
        }
      }

      const KernelGraph::Stage& lead =
          stages[static_cast<std::size_t>(group.front())];
      VCGRA_TRACE_SPAN("graph.stage");
      const Assignment assignment =
          scheduler_.acquire(lead.config_key, lead.keys.structure, lead.compiled);
      detail::InstanceLease lease(scheduler_, assignment.instance);
      overlay::PlanExecutor executor(lead.plan);

      std::vector<overlay::ResolvedJob> jobs;
      jobs.reserve(group.size());
      for (const int si : group) {
        const KernelGraph::Stage& stage = stages[static_cast<std::size_t>(si)];
        overlay::ResolvedJob in;
        in.reserve(stage.slots.size());
        for (const KernelGraph::InputSlot& slot : stage.slots) {
          switch (slot.kind) {
            case KernelGraph::InputSlot::Kind::kDoubles:
              in.push_back({slot.buffer, detail::stream_view(*slot.doubles)});
              break;
            case KernelGraph::InputSlot::Kind::kBits:
              in.push_back({slot.buffer, detail::stream_view(*slot.bits)});
              break;
            case KernelGraph::InputSlot::Kind::kEdge: {
              const KernelGraph::Edge& edge =
                  edges[static_cast<std::size_t>(slot.edge)];
              const std::vector<std::uint64_t>* bits =
                  &produced[static_cast<std::size_t>(edge.producer)]
                       .at(edge.canonical_output);
              if (edge.convert) {
                std::vector<std::uint64_t>& bridged =
                    converted[static_cast<std::size_t>(slot.edge)];
                convert_edge(
                    stages[static_cast<std::size_t>(edge.producer)].arch.format,
                    stage.arch.format, *bits, bridged);
                bits = &bridged;
              }
              in.push_back({slot.buffer, detail::stream_view(*bits)});
              break;
            }
          }
        }
        jobs.push_back(std::move(in));
      }

      std::vector<overlay::PlanExecutor::BatchOutcome> outcomes =
          executor.run_batch_resolved(jobs,
                                      std::vector<bool>(group.size(), true));
      for (std::size_t k = 0; k < group.size(); ++k) {
        if (outcomes[k].error) std::rethrow_exception(outcomes[k].error);
        overlay::RunResult& run = outcomes[k].run;
        result.cycles += run.cycles;
        result.fp_ops += run.fp_ops;
        result.mac_ops += run.mac_ops;
        const std::size_t si = static_cast<std::size_t>(group[k]);
        produced[si] = std::move(run.bit_outputs);
        executed[si] = 1;
        --remaining;
      }
      if (group.size() >= 2) ++result.fused_groups;
    }
  }

  // Every edge delivered exactly one raw buffer this invocation.
  for (const KernelGraph::Edge& edge : edges) {
    if (edge.convert) {
      ++result.edges_converted;
    } else {
      ++result.edges_raw;
    }
  }

  // Boundary materialization: keep_output stages translate canonical ->
  // real names once, by moving — nothing consumes interior buffers now.
  for (std::size_t i = 0; i < n; ++i) {
    const KernelGraph::Stage& stage = stages[i];
    if (!stage.spec.keep_output) continue;
    for (const auto& [real, canonical] : stage.kept_outputs) {
      const auto it = produced[i].find(canonical);
      if (it == produced[i].end()) continue;
      result.bit_outputs.emplace(stage.spec.name + ":" + real,
                                 std::move(it->second));
    }
  }

  result.exec_seconds = exec_timer.seconds();
  // graph.run itself is still open (depth 0); its closed children at
  // depth 1 are the sweeps.
  result.stage_timings = invocation_trace.stage_breakdown(1);
  meters_.graphs_executed.add();
  meters_.graph_stages.add(static_cast<std::uint64_t>(result.stages));
  meters_.graph_edges_raw.add(static_cast<std::uint64_t>(result.edges_raw));
  meters_.graph_edges_converted.add(
      static_cast<std::uint64_t>(result.edges_converted));
  return result;
}

GraphResult OverlayService::run_graph(const GraphRequest& request) {
  return run_graph(*admit_graph(request));
}

std::future<GraphResult> OverlayService::submit_graph(
    std::shared_ptr<const KernelGraph> graph) {
  if (!graph) throw std::invalid_argument("submit_graph: null graph");
  return submit_task(
      [this, graph = std::move(graph)]() { return run_graph(*graph); });
}

// ---------------------------------------------------------------------------
// Sessions

std::unique_ptr<Session> OverlayService::open_session(
    const SessionRequest& request) {
  VCGRA_TRACE_SPAN("session.open");
  auto parsed = parse_cached(request.kernel_text);
  const overlay::ParamBinding binding =
      overlay::merge_params(parsed->params, request.params);
  const CacheKeys keys =
      cache_keys(*parsed, request.arch, request.seed, binding);
  CacheOutcome outcome;
  const auto compiled = cache_.get_or_specialize(
      keys, *parsed, request.arch, request.seed, binding, &outcome);
  auto plan = cache_.plan_for(keys, compiled, options_.sim);
  meters_.sessions_opened.add();
  meters_.sessions_open.add(1);
  return std::unique_ptr<Session>(new Session(
      this, std::move(parsed), std::move(plan), request.raw_output));
}

Session::Session(OverlayService* service,
                 std::shared_ptr<const overlay::ParsedKernel> parsed,
                 std::shared_ptr<const overlay::ExecPlan> plan, bool raw)
    : service_(service),
      service_alive_(service->alive_),
      parsed_(std::move(parsed)),
      plan_(std::move(plan)),
      raw_(raw) {}

Session::~Session() {
  if (!service_alive_.expired()) service_->meters_.sessions_open.add(-1);
}

overlay::RunResult Session::feed(
    const std::map<std::string, std::vector<double>>& chunk) {
  check_service_alive(service_alive_);
  overlay::BatchInputs in;
  add_canonical_streams(*parsed_, chunk, in);
  return feed_impl(in);
}

overlay::RunResult Session::feed_bits(
    const std::map<std::string, std::vector<std::uint64_t>>& chunk) {
  check_service_alive(service_alive_);
  overlay::BatchInputs in;
  add_canonical_streams(*parsed_, chunk, in);
  return feed_impl(in);
}

overlay::RunResult Session::feed_impl(const overlay::BatchInputs& in) {
  VCGRA_TRACE_SPAN("session.feed");
  overlay::RunResult result =
      overlay::PlanExecutor(plan_).run_chunk(in, &carry_, raw_);
  detail::translate_outputs(*parsed_, result);
  ++chunks_;
  service_->meters_.chunks_fed.add();
  return result;
}

std::unique_ptr<GraphSession> OverlayService::open_graph_session(
    std::shared_ptr<const KernelGraph> graph) {
  if (!graph) throw std::invalid_argument("open_graph_session: null graph");
  VCGRA_TRACE_SPAN("session.open");
  meters_.sessions_opened.add();
  meters_.sessions_open.add(1);
  return std::unique_ptr<GraphSession>(
      new GraphSession(this, std::move(graph)));
}

GraphSession::GraphSession(OverlayService* service,
                           std::shared_ptr<const KernelGraph> graph)
    : service_(service),
      service_alive_(service->alive_),
      graph_(std::move(graph)),
      carries_(graph_->stages().size()) {}

GraphSession::~GraphSession() {
  if (!service_alive_.expired()) service_->meters_.sessions_open.add(-1);
}

GraphResult GraphSession::feed(
    const std::map<std::string, std::map<std::string, std::vector<double>>>&
        chunk) {
  check_service_alive(service_alive_);
  VCGRA_TRACE_SPAN("session.feed");
  GraphResult result;
  const std::vector<KernelGraph::Stage>& stages = graph_->stages();
  const std::vector<KernelGraph::Edge>& edges = graph_->edges();
  const std::size_t n = stages.size();
  result.stages = static_cast<int>(n);

  std::vector<std::map<std::string, std::vector<std::uint64_t>>> produced(n);
  std::vector<std::vector<std::uint64_t>> converted(edges.size());

  for (const int si : graph_->topo_order()) {
    const KernelGraph::Stage& stage = stages[static_cast<std::size_t>(si)];
    overlay::BatchInputs in;
    const auto external = chunk.find(stage.spec.name);
    if (external != chunk.end()) {
      add_canonical_streams(*stage.parsed, external->second, in);
    }
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const KernelGraph::Edge& edge = edges[e];
      if (edge.consumer != si) continue;
      const std::vector<std::uint64_t>* bits =
          &produced[static_cast<std::size_t>(edge.producer)]
               .at(edge.canonical_output);
      if (edge.convert) {
        convert_edge(
            stages[static_cast<std::size_t>(edge.producer)].arch.format,
            stage.arch.format, *bits, converted[e]);
        bits = &converted[e];
        ++result.edges_converted;
      } else {
        ++result.edges_raw;
      }
      if (!in.emplace(edge.canonical_input,
                      overlay::BatchStream{bits->data(), nullptr,
                                           bits->size()})
               .second) {
        throw std::invalid_argument(
            "graph stage '" + stage.spec.name + "': input stream '" +
            edge.canonical_input + "' provided both externally and by an edge");
      }
    }
    overlay::RunResult run = overlay::PlanExecutor(stage.plan)
                                 .run_chunk(in, &carries_[static_cast<
                                                std::size_t>(si)],
                                            /*raw_output=*/true);
    result.cycles += run.cycles;
    result.fp_ops += run.fp_ops;
    result.mac_ops += run.mac_ops;
    produced[static_cast<std::size_t>(si)] = std::move(run.bit_outputs);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const KernelGraph::Stage& stage = stages[i];
    if (!stage.spec.keep_output) continue;
    for (const auto& [real, canonical] : stage.kept_outputs) {
      const auto it = produced[i].find(canonical);
      if (it == produced[i].end()) continue;
      result.bit_outputs.emplace(stage.spec.name + ":" + real,
                                 std::move(it->second));
    }
  }

  ++chunks_;
  service_->meters_.chunks_fed.add();
  return result;
}

}  // namespace vcgra::runtime
