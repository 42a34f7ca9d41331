// serve-mixed: interactive query latency against an in-process
// `fsdep serve` daemon (Unix socket, disk cache in the work directory)
// over the seed corpus.
//
// A closed loop of 4 clients, each sending its next request only
// after the previous response arrived. Each client draws a seeded
// sequence over a fixed key space — extract (s1-s4/all x text/json x
// intra/inter), depgraph (intra/inter x self-deps), docck, and blame on
// seeded registry parameters (intra/inter) — and sends `invalidate` (the
// write) at a fixed share of its positions. Reads exercise the socket,
// JSON and the daemon's response memo; invalidations force recomputes
// through ComponentCache rebuilds and DiskCache store/load, and the
// intra/inter mix makes ComponentCache rebuild on an options change.
//
// Checks: every response's stdout equals the one-shot rendering computed
// in set-up with every cache off, and the intra Table 5 unique row
// scores 64 dependencies / 5 false positives (the paper's numbers).
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "corpus/corpus.h"
#include "corpus/pipeline.h"
#include "json/json.h"
#include "model/config_model.h"
#include "model/serialization.h"
#include "tools/condocck.h"
#include "tools/depgraph.h"
#include "tools/serve.h"
#include "serve_mix.h"
#include "workloads.h"

namespace fsbench {

using namespace fsdep;

namespace {

const std::string kInvalidated = "caches invalidated";

/// Closed-loop clients (one daemon connection thread each); recomputes
/// fan out on the daemon's `jobs`-worker pipeline.
constexpr std::size_t kClients = 4;

/// Latency samples each client keeps: a uniform reservoir of its
/// requests, allocated and written before the window so the harness
/// adds the same memory to peak RSS whatever the request rate.
constexpr std::size_t kKeptRequests = 1u << 16;
constexpr std::size_t kKeptComputed = 1u << 14;

/// The one-shot renderings, computed with every cache off: the same
/// text `fsdep extract|graph|docck|explain` prints for these options.
class ReferenceRenderer {
 public:
  explicit ReferenceRenderer(std::size_t jobs) : pipeline_{jobs, false, false} {}

  std::string render(const ServeKey& key) {
    if (key.type == "extract") return renderExtract(key);
    if (key.type == "depgraph") {
      tools::GraphOptions options;
      options.include_self_deps = key.self_deps;
      return tools::renderDependencyGraphDot(table5(key.inter).unique_deps, options);
    }
    if (key.type == "docck") return renderDocck();
    if (key.type == "blame") return renderBlame(key);
    throw std::logic_error("fsbench: no reference for request type " + key.type);
  }

  const corpus::Table5Result& table5(bool inter) {
    std::optional<corpus::Table5Result>& slot = inter ? inter_table5_ : intra_table5_;
    if (!slot) slot = corpus::runTable5(options(inter), nullptr, pipeline_);
    return *slot;
  }

 private:
  static taint::AnalysisOptions options(bool inter) {
    taint::AnalysisOptions topts;
    topts.inter_procedural = inter;
    return topts;
  }

  const std::vector<model::Dependency>& scenarioDeps(const corpus::Scenario& scenario,
                                                     bool inter) {
    auto& memo = inter ? inter_scenarios_ : intra_scenarios_;
    auto it = memo.find(scenario.id);
    if (it == memo.end()) {
      const extract::ExtractOptions eopts = corpus::extractOptions();
      it = memo.emplace(scenario.id, corpus::runScenario(scenario, options(inter), &eopts,
                                                         pipeline_))
               .first;
    }
    return it->second;
  }

  std::string renderExtract(const ServeKey& key) {
    std::vector<model::Dependency> deps;
    if (key.scenario == "all") {
      std::vector<std::vector<model::Dependency>> per_scenario;
      for (const corpus::Scenario& s : corpus::scenarios()) {
        per_scenario.push_back(scenarioDeps(s, key.inter));
      }
      deps = extract::dedupeAcrossScenarios(per_scenario);
    } else {
      for (const corpus::Scenario& s : corpus::scenarios()) {
        if (s.id == key.scenario) deps = scenarioDeps(s, key.inter);
      }
    }
    if (key.json) return json::writePretty(model::toJson(deps));
    std::string out;
    for (const model::Dependency& dep : deps) out += dep.summary() + "\n";
    return out + "\n" + std::to_string(deps.size()) + " dependencies extracted\n";
  }

  std::string renderDocck() {
    const tools::DocCheckReport report = tools::runCorpusDocCheck();
    std::string out = report.summary() + "\n";
    for (const tools::DocIssue& issue : report.issues) {
      out += "  [" + std::string(tools::docIssueKindName(issue.kind)) + "] " +
             issue.explanation + "\n";
    }
    return out;
  }

  std::string renderBlame(const ServeKey& key) {
    const std::string& param = key.param;
    std::string out;
    const model::Parameter* registered = corpus::ecosystem().findParameter(param);
    if (registered != nullptr) {
      out = param + "  (" + registered->flag + ", " + model::configStageName(registered->stage) +
            " stage): " + registered->description + "\n\n";
    } else {
      out = param + "  (not in the parameter registry)\n\n";
    }
    int shown = 0;
    for (const model::Dependency& dep : table5(key.inter).unique_deps) {
      if (dep.param != param && dep.other_param != param) continue;
      out += "  " + dep.summary() + "\n";
      for (const std::string& step : dep.trace) out += "      " + step + "\n";
      ++shown;
    }
    bool documented = false;
    for (const corpus::ManualEntry& entry : corpus::allManuals()) {
      if (entry.claim.param == param || entry.claim.other_param == param) {
        out += "  manual: \"" + entry.text + "\"\n";
        documented = true;
      }
    }
    if (shown == 0) out += "  no extracted dependencies involve this parameter\n";
    if (!documented) out += "  no manual claim mentions this parameter\n";
    return out;
  }

  corpus::PipelineOptions pipeline_;
  std::optional<corpus::Table5Result> intra_table5_;
  std::optional<corpus::Table5Result> inter_table5_;
  std::map<std::string, std::vector<model::Dependency>> intra_scenarios_;
  std::map<std::string, std::vector<model::Dependency>> inter_scenarios_;
};

struct Setup {
  ServeMix mix;
  std::vector<std::string> lines;     ///< request line per key
  std::vector<std::string> expected;  ///< reference stdout per key
  int table5_deps = 0;
  int table5_fps = 0;
};

/// References with every cache off, then the caches the daemon uses.
Setup prepare(const RunConfig& config, const std::string& disk_dir) {
  Setup setup;
  setup.mix = makeServeMix(config.seed, registryParameters());
  corpus::DiskCache::global().configure({""});
  corpus::ComponentCache::global().clear();
  corpus::ComponentCache::global().setEnabled(false);
  ReferenceRenderer renderer(config.jobs);
  for (std::size_t k = 0; k < setup.mix.keys.size(); ++k) {
    setup.lines.push_back(requestLine(setup.mix.keys[k], k));
    setup.expected.push_back(renderer.render(setup.mix.keys[k]));
  }
  const extract::ScenarioScore& unique = renderer.table5(false).unique_score;
  setup.table5_deps = unique.totalExtracted();
  setup.table5_fps = unique.totalFalsePositives();
  corpus::ComponentCache::global().setEnabled(true);
  corpus::DiskCache::global().configure({disk_dir});
  corpus::DiskCache::global().invalidateAll();
  return setup;
}

/// One answered request's timings.
struct RequestSample {
  double round_trip_ms = -1;
  double handle_us = -1;     ///< the response's wall_us
  double transport_us = -1;  ///< round trip - wall_us
};

struct ClientLog {
  explicit ClientLog(std::uint64_t seed)
      : samples(kKeptRequests, seed, RequestSample{}), computed_ms(kKeptComputed, seed + 1, -1) {}

  Reservoir<RequestSample> samples;
  Reservoir<double> computed_ms;  ///< round trips of cached:false reads
  std::uint64_t requests = 0;
  std::uint64_t invalidates = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t failed = 0;
  std::uint64_t parsed_bytes = 0;
  double parse_ms = 0;
  std::string first_failure;
};

/// One client: its own connection (one daemon thread) sending request
/// stream `stream_id` until the deadline.
void runClient(const Setup& setup, const std::string& socket, std::uint64_t seed,
               std::uint64_t stream_id, Clock::time_point deadline, ClientLog& log) {
  RequestStream stream(setup.mix, seed, stream_id);
  const std::uint64_t op_base = stream_id << 40;
  const std::string invalidate = invalidateLine();
  ServeConnection connection;
  std::string error;
  if (!connection.open(socket, error)) {
    ++log.failed;
    log.first_failure = error;
    return;
  }
  std::string raw;
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const int key = stream.next();
    const std::string& line = key < 0 ? invalidate : setup.lines[static_cast<std::size_t>(key)];
    const std::string& expected =
        key < 0 ? kInvalidated : setup.expected[static_cast<std::size_t>(key)];
    Span request("serve.request", op_base + i);
    const auto start = Clock::now();
    const bool answered = [&] {
      Span span("serve.roundtrip", op_base + i);
      return connection.roundTrip(line, raw);
    }();
    const double rt_ms = millisSince(start);
    ++log.requests;
    if (key < 0) ++log.invalidates;
    if (!answered) {
      ++log.failed;
      if (log.first_failure.empty()) log.first_failure = "connection lost on " + line;
      return;
    }
    const auto parse_start = Clock::now();
    const ResponseCheck check = checkResponse(raw, expected);
    log.parse_ms += millisSince(parse_start);
    log.parsed_bytes += raw.size();
    if (!check.matches) {
      ++log.failed;
      if (log.first_failure.empty()) {
        log.first_failure = "request " + line + " answered " + raw.substr(0, 200);
      }
      continue;
    }
    log.samples.add(RequestSample{rt_ms, check.wall_us, rt_ms * 1000 - check.wall_us});
    if (check.cached) {
      ++log.memo_hits;
    } else if (key >= 0) {
      log.computed_ms.add(rt_ms);
    }
  }
}

/// Every client's log for one window, made (and its sample storage
/// written) before the window opens.
std::vector<ClientLog> makeLogs(std::uint64_t seed, std::uint64_t first_stream) {
  std::vector<ClientLog> logs;
  logs.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    logs.emplace_back(seed * 0x9e3779b97f4a7c15ull + first_stream + c);
  }
  return logs;
}

/// Runs the closed loop for `seconds`, client c on its own connection
/// recording into logs[c].
void runWindow(const Setup& setup, const std::string& socket, const RunConfig& config,
               double seconds, std::uint64_t first_stream, std::vector<ClientLog>& logs) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      runClient(setup, socket, config.seed, first_stream + c, deadline, logs[c]);
    });
  }
  for (std::thread& t : clients) t.join();
}

/// The clients' logs of one window, merged.
struct WindowLog {
  std::vector<double> round_trip_ms;
  std::vector<double> computed_ms;
  std::vector<double> handle_us;
  std::vector<double> transport_us;
  std::uint64_t computed = 0;  ///< cached:false reads, kept or not
  std::uint64_t requests = 0;
  std::uint64_t invalidates = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t failed = 0;
  std::uint64_t parsed_bytes = 0;
  double parse_ms = 0;
  std::string first_failure;
};

WindowLog merge(const std::vector<ClientLog>& logs) {
  WindowLog all;
  for (const ClientLog& log : logs) {
    for (const RequestSample& s : log.samples.kept()) {
      all.round_trip_ms.push_back(s.round_trip_ms);
      all.handle_us.push_back(s.handle_us);
      all.transport_us.push_back(s.transport_us);
    }
    const std::vector<double> computed = log.computed_ms.kept();
    all.computed_ms.insert(all.computed_ms.end(), computed.begin(), computed.end());
    all.computed += log.computed_ms.seen();
    all.requests += log.requests;
    all.invalidates += log.invalidates;
    all.memo_hits += log.memo_hits;
    all.failed += log.failed;
    all.parsed_bytes += log.parsed_bytes;
    all.parse_ms += log.parse_ms;
    if (all.first_failure.empty()) all.first_failure = log.first_failure;
  }
  return all;
}

void printMix(const WindowLog& log, std::size_t clients) {
  const double n = log.requests > 0 ? static_cast<double>(log.requests) : 1;
  Report::fact("load", "closed loop, " + std::to_string(clients) + " client(s), " +
                           std::to_string(log.requests) + " request(s)");
  Report::fact("invalidate_share", formatNumber(static_cast<double>(log.invalidates) / n) +
                                       " (" + std::to_string(log.invalidates) + " realized)");
  Report::fact("memo_hit_share", formatNumber(static_cast<double>(log.memo_hits) / n));
  Report::fact("computed_share", formatNumber(static_cast<double>(log.computed) / n) + " (" +
                                     std::to_string(log.computed) + " computed)");
  Report::fact("kept_samples", std::to_string(log.round_trip_ms.size()) + " request and " +
                                   std::to_string(log.computed_ms.size()) +
                                   " computed latencies (uniform reservoirs of " +
                                   std::to_string(kKeptRequests) + " and " +
                                   std::to_string(kKeptComputed) + " per client)");
}

/// Disk-cache and run-scenario sub-passes (direct DiskCache::load/store
/// and corpus::runScenario calls on the seed corpus).
void diskSubPasses(const RunConfig& config, const std::string& disk_dir, LayerMetrics& layers) {
  const taint::AnalysisOptions topts;  // intra
  const extract::ExtractOptions eopts = corpus::extractOptions();
  corpus::DiskCache& global = corpus::DiskCache::global();
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const corpus::Scenario& scenario : corpus::scenarios()) {
      corpus::ComponentCache::global().clear();
      global.invalidateAll();
      auto start = Clock::now();
      {
        Span span("corpus.run_scenario_cold");
        (void)corpus::runScenario(scenario, topts, &eopts, {config.jobs});
      }
      cold_ms.push_back(millisSince(start));
      start = Clock::now();
      {
        Span span("corpus.run_scenario_warm");
        (void)corpus::runScenario(scenario, topts, &eopts, {config.jobs});
      }
      warm_ms.push_back(millisSince(start));
    }
  }
  const std::string run_note = "runScenario s1-s4 x3, cold = caches cleared, warm = disk hit";
  layers.set("corpus.run_scenario_ms_cold", median(cold_ms), cold_ms.size(), run_note);
  layers.set("corpus.run_scenario_ms_warm", median(warm_ms), warm_ms.size(), run_note);

  corpus::DiskCache disk({disk_dir + "-subpass"});
  disk.invalidateAll();
  std::vector<double> store_us;
  std::vector<double> load_us;
  bool round_trips = true;
  for (int rep = 0; rep < 10; ++rep) {
    for (const corpus::Scenario& scenario : corpus::scenarios()) {
      const corpus::CacheKey key = corpus::scenarioCacheKey(scenario, topts, eopts);
      const std::string payload = json::writeCompact(
          model::toJson(corpus::runScenario(scenario, topts, &eopts, {config.jobs})));
      auto start = Clock::now();
      {
        Span span("corpus.disk_store");
        disk.store(key, payload);
      }
      store_us.push_back(millisSince(start) * 1000);
      start = Clock::now();
      std::optional<std::string> loaded;
      {
        Span span("corpus.disk_load");
        loaded = disk.load(key);
      }
      load_us.push_back(millisSince(start) * 1000);
      round_trips = round_trips && loaded && *loaded == payload;
    }
  }
  disk.invalidateAll();
  std::filesystem::remove_all(disk_dir + "-subpass");
  const std::string note = std::string("DiskCache store+load of the s1-s4 payloads x10") +
                           (round_trips ? "" : "; PAYLOAD MISMATCH");
  layers.set("corpus.disk_store_us_p50", median(store_us), store_us.size(), note);
  layers.set("corpus.disk_load_us_p50", median(load_us), load_us.size(), note);
}

}  // namespace

void runServeMixed(const RunConfig& config, RunResult& result) {
  Tracer& tracer = Tracer::global();
  const std::string socket = config.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::string disk_dir = config.work_dir + "/disk-cache-" + std::to_string(::getpid());
  Window window;
  Setup setup;
  std::unique_ptr<tools::ServeDaemon> daemon;
  std::vector<std::string> first_expected;
  std::size_t setups = 0;
  // One set-up (references + daemon start) takes tens of ms: one per sample.
  timeSetups(config, 1, [&] {
    if (daemon) daemon->stop();
    daemon.reset();
    const auto start = Clock::now();
    setup = prepare(config, disk_dir);
    daemon = std::make_unique<tools::ServeDaemon>(tools::ServeOptions{socket, config.jobs});
    const Result<bool> started = daemon->start();
    if (!started.ok()) throw std::runtime_error(started.error().message);
    const double seconds = secondsBetween(start, Clock::now());
    if (++setups == 1) first_expected = setup.expected;
    if (setup.expected != first_expected) {
      result.check(false, "set-up " + std::to_string(setups) + " renders other references");
    }
    return seconds;
  }, window);
  Report::fact("key_space", std::to_string(setup.mix.keys.size()) + " request keys, blame on " +
                                std::to_string(setup.mix.blame_params.size()) +
                                " seeded registry parameter(s), invalidate every " +
                                std::to_string(setup.mix.invalidate_period) +
                                " request(s) per client");
  result.check(setup.table5_deps == 64 && setup.table5_fps == 5,
               "intra Table 5 unique row: " + std::to_string(setup.table5_deps) + " deps, " +
                   std::to_string(setup.table5_fps) + " false positives (paper: 64 / 5)");

  const double resident_before = residentMb();
  std::vector<ClientLog> untraced_logs = makeLogs(config.seed, 0);
  std::vector<ClientLog> traced_logs;
  if (config.trace) traced_logs = makeLogs(config.seed, kClients);
  std::size_t sample_bytes = 0;
  for (const auto* logs : {&untraced_logs, &traced_logs}) {
    for (const ClientLog& log : *logs) sample_bytes += log.samples.bytes() + log.computed_ms.bytes();
  }
  Report::fact("harness_samples_mb",
               formatNumber(static_cast<double>(sample_bytes) / (1024.0 * 1024.0)) +
                   " MB of latency reservoirs, in peak_rss_mb whatever the request rate (" +
                   "resident grew " + formatNumber(residentMb() - resident_before) +
                   " MB making them)");

  const double steal_start = stolenCpuSeconds();
  const auto window_start = Clock::now();
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_stores = 0;
  CacheTraffic cache;
  if (!config.trace) {
    runWindow(setup, socket, config, config.seconds, 0, untraced_logs);
    window.busy_s = secondsBetween(window_start, Clock::now());
  } else {
    runWindow(setup, socket, config, config.seconds / 2, 0, untraced_logs);
    corpus::DiskCache& disk = corpus::DiskCache::global();
    const std::uint64_t hits0 = disk.hits();
    const std::uint64_t misses0 = disk.misses();
    const std::uint64_t stores0 = disk.stores();
    const CacheTraffic cache0 = CacheTraffic::now();
    tracer.setEnabled(true);
    runWindow(setup, socket, config, config.seconds / 2, kClients, traced_logs);
    tracer.setEnabled(false);
    disk_hits = disk.hits() - hits0;
    disk_misses = disk.misses() - misses0;
    disk_stores = disk.stores() - stores0;
    cache = CacheTraffic::now().minus(cache0);
  }
  const double rss = peakRssMb();
  window.stolen_s = stolenCpuSeconds() - steal_start;
  daemon->stop();
  daemon.reset();
  const WindowLog log = merge(untraced_logs);
  const WindowLog traced = merge(traced_logs);

  const WindowLog& shown = config.trace ? traced : log;
  printMix(shown, kClients);
  result.attempted = log.requests + traced.requests;
  result.failed = log.failed + traced.failed;
  const std::string& first_failure =
      log.first_failure.empty() ? traced.first_failure : log.first_failure;
  result.check(result.failed == 0,
               "every response equals its one-shot reference (" +
                   std::to_string(result.attempted - result.failed) + "/" +
                   std::to_string(result.attempted) + ")" +
                   (first_failure.empty() ? "" : "; first failure: " + first_failure));

  if (!config.trace) {
    window.op_ms = log.round_trip_ms;
    window.computed_ms = log.computed_ms;
    window.items = log.requests;
    reportEndToEnd(window, rss,
                   {"requests_per_s", "request_us_p50 (in ms)", "request_ms",
                    "computed_us_p50 (in ms), cached:false responses"},
                   result);
  } else {
    LayerMetrics layers;
    const double n = traced.requests > 0 ? static_cast<double>(traced.requests) : 1;
    const std::string note = "traced half, " + std::to_string(traced.requests) + " request(s)";
    layers.set("tools.serve_handle_us_p50", median(traced.handle_us), traced.handle_us.size(),
               "response wall_us; " + note);
    layers.set("tools.serve_handle_us_p99", percentile(traced.handle_us, 99),
               traced.handle_us.size(), "response wall_us; " + note);
    layers.set("tools.serve_transport_us_p50", median(traced.transport_us),
               traced.transport_us.size(), "round trip - wall_us; " + note);
    layers.set("tools.serve_memo_hit_ratio", static_cast<double>(traced.memo_hits) / n,
               traced.requests, note);
    layers.set("json.parse_mb_per_s",
               traced.parse_ms > 0
                   ? static_cast<double>(traced.parsed_bytes) / 1e6 / (traced.parse_ms / 1000)
                   : 0,
               traced.requests, "client-side json::parse of responses; " + note);
    layers.set("corpus.disk_hits", static_cast<double>(disk_hits), traced.requests, note);
    layers.set("corpus.disk_misses", static_cast<double>(disk_misses), traced.requests, note);
    layers.set("corpus.disk_stores", static_cast<double>(disk_stores), traced.requests, note);
    cache.publish(layers, 1, note);
    tracer.setEnabled(true);
    diskSubPasses(config, disk_dir, layers);
    frontendSubPass(corpus::componentNames(), layers);
    table5SubPass(layers);
    tracer.setEnabled(false);
    reportTraceOverhead(log.round_trip_ms, traced.round_trip_ms, config, layers);
    layers.emit(result.report);
  }
  corpus::DiskCache::global().invalidateAll();
  corpus::DiskCache::global().configure({""});
  std::filesystem::remove_all(disk_dir);
}

}  // namespace fsbench
