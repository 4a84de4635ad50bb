// kbench_runner: the kanon end-to-end benchmark.
//
//   kbench_runner --workload serve|solve|scale --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR]
//
// Builds its inputs from --seed, measures for --seconds, checks every
// answer with the benchmark's own checker (checker.h) and prints one
// JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes the recorded spans to
// DIR/spans-<workload>-<seed>.json (DIR defaults to .bench_out).
// Workloads:
//   serve  closed-loop KNET traffic over loopback TCP against an
//          in-process AnonymizationService (2 connections, 2 workers);
//   solve  single-threaded library calls over a fixed job list
//          (resilient on 24-row tables, mdav and cluster_greedy on
//          1024-2048-row census-like tables);
//   scale  sharded_mdav on 65536 rows and coreset_mdav on 262144 rows.
// See kbench/README.md for the metrics and what each one shows.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algo/anonymizer.h"
#include "algo/fallback.h"
#include "algo/registry.h"
#include "algo/shard_merge.h"
#include "algo/shard_plan.h"
#include "checker.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "coreset/assign.h"
#include "coreset/sampler.h"
#include "data/csv_table.h"
#include "gen.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "service/cache.h"
#include "service/server.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/run_context.h"

namespace kbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Taken during static initialization, before main: the start of the
/// cold set-up that setup_s measures.
const Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Nearest-rank percentile of an ascending sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"requests_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"rows_per_s", "rows/s"},  {"suppressed_cells", "cells"},
    {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric, printed by every traced run; a layer a
/// workload does not exercise reads 0 there.
constexpr Metric kPerLayer[] = {
    {"net.request_encode_us", "us"},
    {"net.request_decode_us", "us"},
    {"net.response_encode_us", "us"},
    {"net.response_decode_us", "us"},
    {"net.request_bytes", "bytes"},
    {"net.response_bytes", "bytes"},
    {"data.csv_parse_us", "us"},
    {"data.csv_write_us", "us"},
    {"service.fingerprint_us", "us"},
    {"service.chain_us", "us"},
    {"service.queue_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.outside_worker_ms", "ms"},
    {"service.cache_hits", "count"},
    {"algo.resilient.run_ms", "ms"},
    {"algo.resilient.answered_by.exact_dp", "count"},
    {"algo.resilient.answered_by.branch_bound", "count"},
    {"algo.resilient.answered_by.greedy_cover", "count"},
    {"algo.resilient.answered_by.suppress_all", "count"},
    {"algo.mdav.run_ms", "ms"},
    {"algo.cluster_greedy.run_ms", "ms"},
    {"algo.sharded_mdav.run_ms", "ms"},
    {"algo.coreset_mdav.run_ms", "ms"},
    {"core.oracle_build_ms", "ms"},
    {"core.partition_cost_us", "us"},
    {"shard.plan_ms", "ms"},
    {"shard.solve_ms", "ms"},
    {"shard.merge_ms", "ms"},
    {"shard.finalize_ms", "ms"},
    {"shard.count", "count"},
    {"shard.composed_cost_gap", "cells"},
    {"coreset.sample_ms", "ms"},
    {"coreset.solve_ms", "ms"},
    {"coreset.assign_ms", "ms"},
    {"coreset.finalize_ms", "ms"},
    {"coreset.sample_rows", "rows"},
    {"coreset.composed_cost_gap", "cells"},
    {"parallel.cpu_per_wall", "ratio"},
};

/// What one run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// End-to-end figures of a traced run, kept for the spans file only.
  std::map<std::string, double> traced_end_to_end;
  std::vector<std::string> problems;

  void Problem(std::string why) {
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, double>& values) {
  std::string out;
  for (const auto& [name, value] : values) {
    if (!out.empty()) out += ", ";
    out += "\"" + name + "\": " + JsonNumber(value);
  }
  return "{" + out + "}";
}

// ---------------------------------------------------------------------
// serve

constexpr size_t kServeConnections = 2;
constexpr unsigned kServeWorkers = 2;
constexpr size_t kServePool = 2048;  // distinct requests per connection
constexpr size_t kServeK = 3;

/// One request of a connection's pool and its verified answer.
struct ServeEntry {
  GenTable gen;
  kanon::NetRequest request;
  std::vector<size_t> all_rows;
  bool verified = false;
  std::string verified_csv;
  uint64_t stars = 0;
};

/// One second of a connection's replies.
struct ServeWindow {
  size_t replies = 0;
  size_t rows = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Width of a serve window. A window holds about 4000 replies of one
/// connection, so its p99 has about 40 beyond it.
constexpr double kWindowS = 1.0;

/// A connection's share of the run. Replies are summed into one-second
/// windows as they arrive, so the client's memory does not grow with
/// the throughput it measures.
struct ServeConn {
  std::vector<ServeEntry> pool;
  std::vector<ServeWindow> windows;
  /// Latencies of the window being filled.
  std::vector<double> open_ms;
  double last_reply_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool wrong = false;
  std::vector<std::string> problems;
  /// Per reply, client latency and the service's own queue and run
  /// times (traced runs only).
  std::vector<double> traced_latency_ms, traced_queue_ms, traced_run_ms;

  void CloseWindow() {
    if (windows.empty()) return;
    ServeWindow& w = windows.back();
    std::sort(open_ms.begin(), open_ms.end());
    w.p50_ms = Percentile(open_ms, 0.50);
    w.p99_ms = Percentile(open_ms, 0.99);
    open_ms.clear();
  }

  void AddReply(double done_s, double latency_ms, size_t rows) {
    const size_t w = static_cast<size_t>(done_s / kWindowS);
    if (windows.size() <= w) {
      CloseWindow();
      windows.resize(w + 1);
    }
    ++windows[w].replies;
    windows[w].rows += rows;
    open_ms.push_back(latency_ms);
    last_reply_s = done_s;
  }
};

/// Reports the median over the windows in which both connections were
/// busy, so a slow phase of the host shorter than half the run does not
/// move the figures. Throughput sums both connections' windows; latency
/// percentiles are those of each connection's window.
void ServeWindows(const std::vector<ServeConn>& conns,
                  std::map<std::string, double>* e2e) {
  double busy_until = std::numeric_limits<double>::infinity();
  for (const ServeConn& conn : conns) {
    busy_until = std::min(busy_until, conn.last_reply_s);
  }
  const size_t full = static_cast<size_t>(busy_until / kWindowS);
  std::vector<double> rps, rows_ps, p50, p99;
  for (size_t w = 0; w < std::max<size_t>(full, 1); ++w) {
    // A run shorter than one window reports its partial first window.
    const double width = full == 0 ? busy_until : kWindowS;
    double replies = 0.0, rows = 0.0;
    for (const ServeConn& conn : conns) {
      if (w >= conn.windows.size()) continue;
      replies += static_cast<double>(conn.windows[w].replies);
      rows += static_cast<double>(conn.windows[w].rows);
      p50.push_back(conn.windows[w].p50_ms);
      p99.push_back(conn.windows[w].p99_ms);
    }
    rps.push_back(replies / width);
    rows_ps.push_back(rows / width);
  }
  (*e2e)["requests_per_s"] = Median(rps);
  (*e2e)["rows_per_s"] = Median(rows_ps);
  (*e2e)["latency_p50_ms"] = Median(p50);
  (*e2e)["latency_p99_ms"] = Median(p99);
}

/// Pool entries are three 24-row uniform tables (kanon_load's shape) to
/// one 32..48-row census-like table, alternating mdav and
/// cluster_greedy, so the mix is the same for every seed.
std::vector<ServeEntry> MakeServePool(uint64_t seed, size_t conn) {
  Rng rng(StreamSeed(seed, 100 + conn));
  std::vector<ServeEntry> pool(kServePool);
  for (size_t i = 0; i < kServePool; ++i) {
    ServeEntry& e = pool[i];
    e.gen = i % 4 == 3 ? CensusLikeTable(32 + rng.Below(17), &rng)
                       : UniformTable(24, 3, 4, &rng);
    e.all_rows = SampleRows(e.gen.rows, e.gen.rows, 0);
    e.request.verb = kanon::NetVerb::kAnonymize;
    e.request.request.algorithm = (i / 4) % 2 == 0 ? "cluster_greedy" : "mdav";
    e.request.request.k = kServeK;
    e.request.request.emit_csv = true;
    e.request.request.csv_text = e.gen.csv;
  }
  return pool;
}

enum class Answer { kOk, kFailed, kWrong };

Answer CheckServeAnswer(ServeEntry* e, uint64_t seq,
                        const kanon::StatusOr<kanon::NetResponse>& reply,
                        std::string* why) {
  if (!reply.ok()) {
    *why = "transport: " + std::string(reply.status().message());
    return Answer::kFailed;
  }
  const kanon::NetResponse& r = reply.value();
  if (!r.ok()) {
    *why = "typed error " + r.error_name + ": " + r.message;
    return Answer::kFailed;
  }
  if (r.client_seq != seq || r.rows != e->gen.rows || r.cache_hit) {
    *why = "reply does not match its request (seq, rows or cache flag)";
    return Answer::kWrong;
  }
  if (e->verified && r.cost == e->stars && r.csv == e->verified_csv) {
    return Answer::kOk;
  }
  const Verdict v = CheckCsvAnswer(e->gen, r.csv, kServeK, r.cost, e->all_rows);
  if (!v.ok) {
    *why = v.why;
    return Answer::kWrong;
  }
  if (!e->verified) {
    e->verified = true;
    e->verified_csv = r.csv;
    e->stars = v.stars;
  }
  return Answer::kOk;
}

/// Replays every pool request once through the public codec, parse,
/// fingerprint, chain and encode functions the server runs, timing each
/// layer; the replayed answer must equal the live one.
void ReplayServe(std::vector<ServeConn>& conns, Tracer* tracer,
                 LayerSamples* layers, RunResult* result) {
  uint64_t request_id = 0;
  for (ServeConn& conn : conns) {
    for (ServeEntry& e : conn.pool) {
      ++request_id;
      SpanTimer whole(tracer, "replay.request", 0, request_id);
      const uint64_t parent = whole.id();
      std::string wire;
      {
        SpanTimer s(tracer, "net.request_encode", parent, request_id);
        wire = kanon::EncodeNetRequest(e.request);
        layers->Add("net.request_encode_us", s.Close());
      }
      layers->Add("net.request_bytes", static_cast<double>(wire.size()));
      kanon::NetRequest decoded;
      {
        SpanTimer s(tracer, "net.request_decode", parent, request_id);
        auto body = kanon::DecodeFrameExact(wire);
        auto req = body.ok() ? kanon::DecodeNetRequest(body.value())
                             : kanon::StatusOr<kanon::NetRequest>(body.status());
        layers->Add("net.request_decode_us", s.Close());
        if (!req.ok()) {
          result->correct = false;
          result->Problem("replay: request did not decode");
          return;
        }
        decoded = std::move(req.value());
      }
      std::optional<kanon::Table> table;
      {
        SpanTimer s(tracer, "data.csv_parse", parent, request_id);
        auto parsed = kanon::ParseTableCsv(decoded.request.csv_text);
        layers->Add("data.csv_parse_us", s.Close());
        if (!parsed.ok()) {
          result->correct = false;
          result->Problem("replay: CSV did not parse");
          return;
        }
        table.emplace(std::move(parsed.value()));
      }
      {
        SpanTimer s(tracer, "service.fingerprint", parent, request_id);
        volatile uint64_t fp = kanon::TableFingerprint(*table);
        (void)fp;
        layers->Add("service.fingerprint_us", s.Close());
      }
      // The worker's chain for a named heuristic: the algorithm, then
      // greedy_cover, then suppress_all.
      kanon::AnonymizationResult answer;
      {
        SpanTimer s(tracer, "service.chain", parent, request_id);
        kanon::FallbackOptions chain_options;
        chain_options.stages = {decoded.request.algorithm, "greedy_cover",
                                "suppress_all"};
        kanon::FallbackAnonymizer chain(chain_options);
        kanon::RunContext ctx;
        answer = chain.Run(*table, decoded.request.k, &ctx);
        layers->Add("service.chain_us", s.Close());
      }
      std::string csv;
      {
        SpanTimer s(tracer, "data.csv_write", parent, request_id);
        csv = kanon::TableToCsv(answer.MakeSuppressor(*table).Apply(*table));
        layers->Add("data.csv_write_us", s.Close());
      }
      if (csv != e.verified_csv || answer.cost != e.stars) {
        result->correct = false;
        result->Problem("replay: answer differs from the served answer");
      }
      kanon::AnonymizeResponse response;
      response.id = request_id;
      response.algorithm = decoded.request.algorithm;
      response.k = decoded.request.k;
      response.rows = table->num_rows();
      response.cost = answer.cost;
      response.stage = answer.stage;
      response.termination = answer.termination;
      response.anonymized_csv = std::move(csv);
      std::string reply_wire;
      {
        SpanTimer s(tracer, "net.response_encode", parent, request_id);
        reply_wire = kanon::EncodeNetResponse(
            kanon::MakeNetResponse(kanon::NetVerb::kAnonymize,
                                   decoded.client_seq, response));
        layers->Add("net.response_encode_us", s.Close());
      }
      layers->Add("net.response_bytes", static_cast<double>(reply_wire.size()));
      {
        SpanTimer s(tracer, "net.response_decode", parent, request_id);
        auto body = kanon::DecodeFrameExact(reply_wire);
        const bool ok =
            body.ok() && kanon::DecodeNetResponse(body.value()).ok();
        layers->Add("net.response_decode_us", s.Close());
        if (!ok) {
          result->correct = false;
          result->Problem("replay: response did not decode");
        }
      }
    }
  }
}

bool RunServe(const Options& opt, Tracer* tracer, RunResult* result) {
  std::vector<ServeConn> conns(kServeConnections);
  for (size_t c = 0; c < kServeConnections; ++c) {
    conns[c].pool = MakeServePool(opt.seed, c);
  }
  kanon::ServiceOptions service_options;
  service_options.workers = kServeWorkers;
  kanon::AnonymizationService service(service_options);
  kanon::NetServer server(service, kanon::NetServerOptions{});
  if (const kanon::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "kbench: server did not start: %s\n",
                 std::string(started.message()).c_str());
    return false;
  }
  std::thread loop([&server] { server.Run(); });
  std::vector<std::unique_ptr<kanon::NetClient>> clients;
  for (size_t c = 0; c < kServeConnections; ++c) {
    clients.push_back(std::make_unique<kanon::NetClient>());
    if (!clients.back()->Connect("127.0.0.1", server.port()).ok()) {
      std::fprintf(stderr, "kbench: client %zu did not connect\n", c);
      server.RequestStop();
      loop.join();
      return false;
    }
  }
  const double setup_s = SecondsSince(g_process_start);

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      ServeConn& conn = conns[c];
      kanon::NetClient& client = *clients[c];
      uint64_t seq = 0;
      // Whole passes over the pool: every run asks every request the
      // same number of times per pass, and the LRU cache (64 entries)
      // never holds a request when it comes round again.
      do {
        for (size_t i = 0; i < conn.pool.size(); ++i) {
          ServeEntry& e = conn.pool[i];
          e.request.client_seq = ++seq;
          const uint64_t request_id = (uint64_t{c} << 40) | seq;
          const Clock::time_point t0 = Clock::now();
          SpanTimer span(tracer, "client.call", 0, request_id);
          const auto reply = client.Call(e.request);
          span.Close();
          const Clock::time_point t1 = Clock::now();
          ++conn.attempted;
          std::string why;
          const Answer answer = CheckServeAnswer(&e, seq, reply, &why);
          if (answer != Answer::kOk) {
            ++conn.failed;
            conn.wrong = conn.wrong || answer == Answer::kWrong;
            if (conn.problems.size() < 4) conn.problems.push_back(why);
            if (!reply.ok()) {  // the connection is gone
              conn.CloseWindow();
              return;
            }
            continue;
          }
          conn.AddReply(std::chrono::duration<double>(t1 - start).count(),
                        MillisBetween(t0, t1), e.gen.rows);
          if (tracer->enabled()) {
            conn.traced_latency_ms.push_back(MillisBetween(t0, t1));
            conn.traced_queue_ms.push_back(reply.value().queue_ms);
            conn.traced_run_ms.push_back(reply.value().run_ms);
          }
        }
      } while (Clock::now() < deadline);
      conn.CloseWindow();
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& client : clients) client->Close();
  server.RequestDrain();
  loop.join();
  const kanon::ServiceStats stats = service.Stats();
  service.Shutdown();

  uint64_t stars = 0;
  LayerSamples layers;
  for (ServeConn& conn : conns) {
    result->attempted += conn.attempted;
    result->failed += conn.failed;
    if (conn.wrong) result->correct = false;
    for (std::string& p : conn.problems) result->Problem(std::move(p));
    for (const ServeEntry& e : conn.pool) {
      if (!e.verified) {
        result->correct = false;
        result->Problem("a pool request was never answered");
      }
      stars += e.stars;
    }
    for (size_t i = 0; i < conn.traced_latency_ms.size(); ++i) {
      layers.Add("service.queue_ms", conn.traced_queue_ms[i]);
      layers.Add("service.run_ms", conn.traced_run_ms[i]);
      layers.Add("service.outside_worker_ms", conn.traced_latency_ms[i] -
                                                  conn.traced_queue_ms[i] -
                                                  conn.traced_run_ms[i]);
    }
  }
  if (stats.cache.hits != 0) {
    result->correct = false;
    result->Problem("the result cache answered " +
                    std::to_string(stats.cache.hits) +
                    " requests; serve must miss every time");
  }
  std::map<std::string, double>& e2e =
      opt.trace ? result->traced_end_to_end : result->metrics;
  e2e["setup_s"] = setup_s;
  ServeWindows(conns, &e2e);
  e2e["suppressed_cells"] = static_cast<double>(stars);
  e2e["peak_rss_mb"] = PeakRssMiB();
  if (opt.trace) {
    ReplayServe(conns, tracer, &layers, result);
    for (const char* name :
         {"net.request_encode_us", "net.request_decode_us",
          "net.response_encode_us", "net.response_decode_us",
          "net.request_bytes", "net.response_bytes", "data.csv_parse_us",
          "data.csv_write_us", "service.fingerprint_us", "service.chain_us",
          "service.queue_ms", "service.run_ms",
          "service.outside_worker_ms"}) {
      result->metrics[name] = layers.Median(name);
    }
    result->metrics["service.cache_hits"] = static_cast<double>(stats.cache.hits);
  }
  return true;
}

// ---------------------------------------------------------------------
// solve and scale: rounds of library calls over a fixed job list

struct Job {
  std::string algorithm;
  size_t k = 0;
  uint64_t node_budget = 0;
  GenTable gen;
  std::optional<kanon::Table> table;
  std::vector<size_t> sample;
  /// Wall milliseconds of each Run call.
  std::vector<double> ms;
  /// Process CPU seconds over wall seconds of each call.
  std::vector<double> cpu_per_wall;
  /// Stars of the first answer (the benchmark's own count).
  uint64_t stars = 0;
  std::string first_stage;
};

/// Parses the job's generated CSV into the program's Table.
bool LoadJobTable(Job* job, Tracer* tracer, LayerSamples* layers) {
  SpanTimer s(tracer, "data.csv_parse");
  auto parsed = kanon::ParseTableCsv(job->gen.csv);
  layers->Add("data.csv_parse_us", s.Close());
  if (!parsed.ok()) {
    std::fprintf(stderr, "kbench: generated CSV did not parse: %s\n",
                 std::string(parsed.status().message()).c_str());
    return false;
  }
  job->table.emplace(std::move(parsed.value()));
  return true;
}

Job MakeJob(std::string algorithm, size_t k, uint64_t node_budget,
            GenTable gen, size_t sample_rows, uint64_t sample_seed) {
  Job job;
  job.algorithm = std::move(algorithm);
  job.k = k;
  job.node_budget = node_budget;
  job.gen = std::move(gen);
  job.sample = SampleRows(job.gen.rows, sample_rows, sample_seed);
  return job;
}

/// solve: per round, 72 resilient calls on 24-row uniform tables and
/// one mdav and one cluster_greedy call on each of three census-like
/// tables (1024, 1536 and 2048 rows), interleaved; the three kinds take
/// comparable shares of the round.
std::vector<Job> MakeSolveJobs(uint64_t seed) {
  constexpr size_t kResilientPerHalf = 12;
  std::vector<Job> jobs;
  const size_t sizes[] = {1024, 1536, 2048};
  uint64_t stream = 300;
  const auto add_resilient = [&] {
    for (size_t r = 0; r < kResilientPerHalf; ++r) {
      Rng small(StreamSeed(seed, stream++));
      jobs.push_back(MakeJob("resilient", 3, 2000,
                             UniformTable(24, 3, 4, &small), 24, 0));
    }
  };
  for (size_t t = 0; t < 3; ++t) {
    Rng rng(StreamSeed(seed, 200 + t));
    GenTable census = CensusLikeTable(sizes[t], &rng);
    jobs.push_back(MakeJob("mdav", 5, 0, census, 64, rng.Next()));
    add_resilient();
    jobs.push_back(MakeJob("cluster_greedy", 5, 0, std::move(census), 64,
                           rng.Next()));
    add_resilient();
  }
  return jobs;
}

/// scale: per round, sharded_mdav on 65536 rows and coreset_mdav on
/// 262144 rows (k=5, library defaults otherwise).
std::vector<Job> MakeScaleJobs(uint64_t seed) {
  std::vector<Job> jobs;
  Rng a(StreamSeed(seed, 400));
  jobs.push_back(MakeJob("sharded_mdav", 5, 0, CensusLikeTable(65536, &a), 32,
                         a.Next()));
  Rng b(StreamSeed(seed, 401));
  jobs.push_back(MakeJob("coreset_mdav", 5, 0, CensusLikeTable(262144, &b), 32,
                         b.Next()));
  return jobs;
}

/// Times one Run call and checks its answer; returns false on a wrong
/// answer (reason in *why).
bool RunJobOnce(Job* job, Tracer* tracer, LayerSamples* layers,
                uint64_t request_id, bool first, std::string* why) {
  std::unique_ptr<kanon::Anonymizer> anonymizer =
      kanon::MakeAnonymizer(job->algorithm);
  kanon::RunContext ctx;
  if (job->node_budget > 0) ctx.set_node_budget(job->node_budget);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  SpanTimer span(tracer, "algo.run", 0, request_id);
  kanon::AnonymizationResult answer = anonymizer->Run(*job->table, job->k, &ctx);
  span.Close();
  const double ms = MillisBetween(t0, Clock::now());
  const double cpu = ProcessCpuSeconds() - cpu0;
  job->ms.push_back(ms);
  job->cpu_per_wall.push_back(cpu / (ms / 1e3));
  if (tracer->enabled()) {
    SpanTimer s(tracer, "core.partition_cost", 0, request_id);
    volatile size_t cost = kanon::PartitionCost(*job->table, answer.partition);
    (void)cost;
    layers->Add("core.partition_cost_us", s.Close());
  }
  const Verdict v = CheckPartitionAnswer(job->gen, answer.partition.groups,
                                         job->k, answer.cost, job->sample);
  if (!v.ok) {
    *why = job->algorithm + " on " + std::to_string(job->gen.rows) +
           " rows: " + v.why;
    return false;
  }
  if (first) {
    job->stars = v.stars;
    job->first_stage = answer.stage;
  }
  return true;
}

/// Times the wrappers' last step, FinalizeResult (cost and diameter
/// sum of the final partition), and returns the cost.
uint64_t FinalizeComposed(const kanon::Table& table,
                          const kanon::Partition& partition, Tracer* tracer,
                          uint64_t parent, const std::string& metric,
                          LayerSamples* layers) {
  kanon::AnonymizationResult result;
  result.partition = partition;
  SpanTimer s(tracer, "finalize", parent);
  kanon::FinalizeResult(table, &result);
  layers->Add(metric, s.Close() / 1e3);
  return result.cost;
}

/// Composes the sharded pipeline from its public stages (plan, one mdav
/// Run per shard, merge) and times each; returns the composed cost.
uint64_t TraceShardPipeline(const Job& job, Tracer* tracer,
                            LayerSamples* layers, RunResult* result) {
  const kanon::Table& table = *job.table;
  kanon::RunContext ctx;
  SpanTimer whole(tracer, "shard.pipeline");
  SpanTimer plan_span(tracer, "shard.plan", whole.id());
  auto plan = kanon::PlanShards(table, job.k, kanon::ShardOptions{}, &ctx);
  layers->Add("shard.plan_ms", plan_span.Close() / 1e3);
  if (!plan.ok()) {
    result->correct = false;
    result->Problem("composed shard plan failed");
    return 0;
  }
  layers->Add("shard.count", static_cast<double>(plan->num_shards()));
  // Shards solve concurrently on up to GetParallelism() threads, as the
  // wrapper does; each shard gets a lenient child context.
  std::vector<kanon::Partition> parts(plan->num_shards());
  SpanTimer solve_span(tracer, "shard.solve", whole.id());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t workers =
      std::min<size_t>(kanon::GetParallelism(), plan->num_shards());
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < parts.size(); i = next++) {
        SpanTimer s(tracer, "shard.solve_one", solve_span.id(), i);
        kanon::Table shard = table.SelectRows(plan->shards[i]);
        kanon::RunContext child(&ctx);
        child.set_lenient(true);
        parts[i] =
            kanon::MakeAnonymizer("mdav")->Run(shard, job.k, &child).partition;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  layers->Add("shard.solve_ms", solve_span.Close() / 1e3);
  SpanTimer merge_span(tracer, "shard.merge", whole.id());
  auto merged = kanon::MergeShardPartitions(table, *plan, parts, job.k, &ctx);
  layers->Add("shard.merge_ms", merge_span.Close() / 1e3);
  if (!merged.ok()) {
    result->correct = false;
    result->Problem("composed shard merge failed");
    return 0;
  }
  const uint64_t cost =
      FinalizeComposed(table, merged->partition, tracer, whole.id(),
                       "shard.finalize_ms", layers);
  const Verdict v = CheckPartitionAnswer(job.gen, merged->partition.groups,
                                         job.k, cost, job.sample);
  if (!v.ok) {
    result->correct = false;
    result->Problem("composed shard pipeline: " + v.why);
  }
  return cost;
}

/// Composes the coreset pipeline (sample, mdav Run on the weighted
/// sample, assign) and times each stage; returns the composed cost.
uint64_t TraceCoresetPipeline(const Job& job, Tracer* tracer,
                              LayerSamples* layers, RunResult* result) {
  const kanon::Table& table = *job.table;
  kanon::RunContext ctx;
  SpanTimer whole(tracer, "coreset.pipeline");
  SpanTimer sample_span(tracer, "coreset.sample", whole.id());
  auto sample =
      kanon::DrawCoresetSample(table, job.k, kanon::CoresetOptions{}, &ctx);
  layers->Add("coreset.sample_ms", sample_span.Close() / 1e3);
  if (!sample.ok()) {
    result->correct = false;
    result->Problem("composed coreset sample failed");
    return 0;
  }
  layers->Add("coreset.sample_rows", static_cast<double>(sample->rows.size()));
  kanon::Table sample_table = table.SelectRows(sample->rows);
  sample_table.SetRowWeights(sample->weights);
  SpanTimer solve_span(tracer, "coreset.solve", whole.id());
  kanon::RunContext child(&ctx);
  child.set_lenient(true);
  const kanon::AnonymizationResult inner =
      kanon::MakeAnonymizer("mdav")->Run(sample_table, job.k, &child);
  layers->Add("coreset.solve_ms", solve_span.Close() / 1e3);
  SpanTimer assign_span(tracer, "coreset.assign", whole.id());
  auto assigned = kanon::AssignToCoresetGroups(table, sample_table,
                                               inner.partition, job.k, &ctx);
  layers->Add("coreset.assign_ms", assign_span.Close() / 1e3);
  if (!assigned.ok()) {
    result->correct = false;
    result->Problem("composed coreset assign failed");
    return 0;
  }
  const uint64_t cost =
      FinalizeComposed(table, assigned->partition, tracer, whole.id(),
                       "coreset.finalize_ms", layers);
  const Verdict v = CheckPartitionAnswer(job.gen, assigned->partition.groups,
                                         job.k, cost, job.sample);
  if (!v.ok) {
    result->correct = false;
    result->Problem("composed coreset pipeline: " + v.why);
  }
  return cost;
}

bool RunJobs(const Options& opt, std::vector<Job> jobs, Tracer* tracer,
             RunResult* result) {
  LayerSamples layers;
  for (Job& job : jobs) {
    if (!LoadJobTable(&job, tracer, &layers)) return false;
  }
  const double setup_s = SecondsSince(g_process_start);

  const Clock::time_point start = Clock::now();
  uint64_t request_id = 0;
  size_t rounds = 0;
  // Whole rounds: a round is started while time remains, and always
  // runs every job once.
  while (rounds == 0 || SecondsSince(start) < opt.seconds) {
    for (Job& job : jobs) {
      ++result->attempted;
      std::string why;
      if (!RunJobOnce(&job, tracer, &layers, ++request_id, rounds == 0, &why)) {
        ++result->failed;
        result->correct = false;
        result->Problem(why);
      }
    }
    ++rounds;
  }

  // A job's time is its fastest call. This host alternates between
  // phases of seconds to minutes that run the same calls about 40%
  // apart. A median lands in whichever phase held more of the run's
  // calls, so it flips between runs; the fastest call stays in the fast
  // phase whenever any round fell there. A round's time is the sum of
  // the job times, and the latency figures are the median and the
  // nearest-rank p99 over jobs.
  double round_ms = 0.0;
  uint64_t round_rows = 0;
  uint64_t stars = 0;
  std::vector<double> latency;
  std::map<std::string, std::vector<double>> per_algorithm;
  std::vector<double> cpu_per_wall;
  std::map<std::string, double> answered_by;
  for (const Job& job : jobs) {
    const double job_ms = *std::min_element(job.ms.begin(), job.ms.end());
    round_ms += job_ms;
    round_rows += job.gen.rows;
    stars += job.stars;
    latency.push_back(job_ms);
    auto& samples = per_algorithm[job.algorithm];
    samples.insert(samples.end(), job.ms.begin(), job.ms.end());
    cpu_per_wall.insert(cpu_per_wall.end(), job.cpu_per_wall.begin(),
                        job.cpu_per_wall.end());
    if (job.algorithm == "resilient") answered_by[job.first_stage] += 1;
  }
  std::sort(latency.begin(), latency.end());
  std::map<std::string, double>& e2e =
      opt.trace ? result->traced_end_to_end : result->metrics;
  e2e["setup_s"] = setup_s;
  e2e["requests_per_s"] = static_cast<double>(jobs.size()) / (round_ms / 1e3);
  e2e["latency_p50_ms"] = Median(latency);
  e2e["latency_p99_ms"] = Percentile(latency, 0.99);
  e2e["rows_per_s"] = static_cast<double>(round_rows) / (round_ms / 1e3);
  e2e["suppressed_cells"] = static_cast<double>(stars);
  e2e["peak_rss_mb"] = PeakRssMiB();
  if (!opt.trace) return true;

  for (const auto& [algorithm, samples] : per_algorithm) {
    result->metrics["algo." + algorithm + ".run_ms"] = Median(samples);
  }
  for (const auto& [stage, count] : answered_by) {
    result->metrics["algo.resilient.answered_by." + stage] = count;
  }
  result->metrics["data.csv_parse_us"] = layers.Median("data.csv_parse_us");
  result->metrics["core.partition_cost_us"] =
      layers.Median("core.partition_cost_us");
  if (opt.workload == "solve") {
    for (const Job& job : jobs) {
      if (job.gen.rows < 1024 || job.algorithm != "mdav") continue;
      SpanTimer s(tracer, "core.oracle_build");
      auto oracle = kanon::DistanceOracle::Create(
          *job.table, kanon::DistanceOracleOptions{}, nullptr);
      layers.Add("core.oracle_build_ms", s.Close() / 1e3);
      if (!oracle.ok()) {
        result->correct = false;
        result->Problem("distance oracle build failed");
      }
    }
    result->metrics["core.oracle_build_ms"] =
        layers.Median("core.oracle_build_ms");
  } else {
    result->metrics["parallel.cpu_per_wall"] = Median(cpu_per_wall);
    for (const Job& job : jobs) {
      if (job.algorithm == "sharded_mdav") {
        const uint64_t cost = TraceShardPipeline(job, tracer, &layers, result);
        result->metrics["shard.composed_cost_gap"] =
            std::fabs(static_cast<double>(cost) - static_cast<double>(job.stars));
      } else if (job.algorithm == "coreset_mdav") {
        const uint64_t cost =
            TraceCoresetPipeline(job, tracer, &layers, result);
        result->metrics["coreset.composed_cost_gap"] =
            std::fabs(static_cast<double>(cost) - static_cast<double>(job.stars));
      }
    }
    for (const char* name :
         {"shard.plan_ms", "shard.solve_ms", "shard.merge_ms",
          "shard.finalize_ms", "shard.count", "coreset.sample_ms",
          "coreset.solve_ms", "coreset.assign_ms", "coreset.finalize_ms",
          "coreset.sample_rows"}) {
      result->metrics[name] = layers.Median(name);
    }
  }
  return true;
}

// ---------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return opt->workload == "serve" || opt->workload == "solve" ||
         opt->workload == "scale";
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: kbench_runner --workload serve|solve|scale "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  Tracer tracer(opt.trace);
  RunResult result;
  bool ran = false;
  if (opt.workload == "serve") {
    ran = RunServe(opt, &tracer, &result);
  } else {
    kanon::SetParallelism(
        opt.workload == "solve"
            ? 1u
            : std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    ran = RunJobs(opt,
                  opt.workload == "solve" ? MakeSolveJobs(opt.seed)
                                          : MakeScaleJobs(opt.seed),
                  &tracer, &result);
  }
  if (!ran) return 1;
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "kbench: %s\n", p.c_str());
  }

  std::string metrics;
  const auto add = [&](const Metric& m) {
    if (!metrics.empty()) metrics += ", ";
    const auto it = result.metrics.find(m.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const Metric& m : kPerLayer) add(m);
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    const std::string extra =
        "\"workload\": \"" + opt.workload + "\", \"seed\": " +
        std::to_string(opt.seed) + ", \"end_to_end_traced\": " +
        MetricsJson(result.traced_end_to_end) +
        ", \"per_layer\": " + MetricsJson(result.metrics);
    if (ec || !tracer.WriteJson(path, extra)) {
      std::fprintf(stderr, "kbench: could not write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "kbench: wrote %zu spans to %s\n", tracer.size(),
                 path.c_str());
  } else {
    for (const Metric& m : kEndToEnd) add(m);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace kbench

int main(int argc, char** argv) { return kbench::Main(argc, argv); }
