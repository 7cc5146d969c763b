// jfeed-loadgen: open-loop deadline-spike load generator for a running
// jfeedd (single- or multi-tenant). Replays the testing::traffic schedule —
// a quiet lead-in, then a ramp of near-duplicate resubmissions whose
// density rises until the deadline — and reports per-assignment throughput,
// shed rate, and latency percentiles.
//
//   jfeed_loadgen --port <n> [flags]
//
// Flags:
//   --port <n>           jfeedd port (required)
//   --assignments <ids>  comma-separated assignment ids (default
//                        assignment1,mitx-polynomials,rit-all-g-medals)
//   --submissions <n>    total submissions across assignments (default 600)
//   --idle-ms <n>        quiet lead-in duration (default 1000)
//   --spike-ms <n>       spike window duration (default 4000)
//   --connections <n>    sender threads (default 8)
//   --seed <n>           traffic-model seed (default 1)
//   --deadline-ms <n>    per-request client deadline (default 30000)
//   --time-scale <x100>  schedule compression: 100 replays offsets as-is,
//                        50 at double speed, 0 fires everything at once
//                        (default 100)
//   --json <path>        write the jfeed-bench-loadgen-v1 report (default
//                        BENCH_loadgen.json; "-" prints to stdout only)
//
// Open-loop means the schedule, not the server, decides send times: a
// sender thread claims the next due event, sleeps until its offset, fires
// one single-line POST /grade and classifies the answer —
//   ok     HTTP 200 (graded; per-line 404/429 cannot occur on a one-line
//          request that was accepted)
//   shed   HTTP 429 (admission quota) or 503 (draining/at capacity)
//   error  anything else, including transport failures
// so when the daemon sheds, offered load does NOT slow down — exactly the
// deadline-day condition the per-shard admission control exists for.
//
// Every request carries a freshly minted W3C traceparent; the report's
// totals block lists the trace ids of the slowest graded requests and of
// every shed one, ready to paste into /events?trace_id= or to find in the
// fleet's stitched /tracez.
//
// Exit codes: 0 when every request got an HTTP answer and none errored,
// 1 when any request errored, 2 on usage/startup problems.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet/http_client.h"
#include "kb/assignments.h"
#include "obs/trace_context.h"
#include "support/json.h"
#include "testing/traffic.h"

namespace {

using jfeed::testing::TrafficAssignment;
using jfeed::testing::TrafficEvent;
using jfeed::testing::TrafficOptions;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--assignments a1,a2,...] "
               "[--submissions N] [--idle-ms N] [--spike-ms N] "
               "[--connections N] [--seed N] [--deadline-ms N] "
               "[--time-scale N] [--json PATH|-]\n",
               argv0);
  return 2;
}

bool ParseInt64(const char* text, int64_t* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

std::vector<std::string> SplitIds(const std::string& text) {
  std::vector<std::string> ids;
  std::string current;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      if (!current.empty()) ids.push_back(current);
      current.clear();
    } else {
      current.push_back(text[i]);
    }
  }
  return ids;
}

/// One request's fate, recorded by the sender threads.
struct Sample {
  size_t assignment = 0;  ///< Index into the assignment-id list.
  int64_t latency_us = 0;
  enum class Kind { kOk, kShed, kError } kind = Kind::kError;
  /// The trace id this request carried as its traceparent — the join key
  /// into the daemon's /events?trace_id= and /tracez views.
  std::string trace_id;
};

/// Latency percentile over an explicitly sorted sample set (exact, not
/// bucketed — the loadgen holds every sample anyway).
int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}

struct Totals {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  std::vector<int64_t> ok_latencies_us;
  /// {latency_us, trace_id} per ok request — source of the slowest-N list.
  std::vector<std::pair<int64_t, std::string>> ok_traces;
  /// Trace id of every shed request, send order.
  std::vector<std::string> shed_traces;

  void Fold(const Sample& sample) {
    ++sent;
    switch (sample.kind) {
      case Sample::Kind::kOk:
        ++ok;
        ok_latencies_us.push_back(sample.latency_us);
        ok_traces.emplace_back(sample.latency_us, sample.trace_id);
        break;
      case Sample::Kind::kShed:
        ++shed;
        shed_traces.push_back(sample.trace_id);
        break;
      case Sample::Kind::kError:
        ++errors;
        break;
    }
  }

  double ShedRate() const {
    return sent > 0 ? static_cast<double>(shed) / static_cast<double>(sent)
                    : 0.0;
  }
};

std::string RenderBlock(const Totals& totals, double wall_s) {
  std::vector<int64_t> sorted = totals.ok_latencies_us;
  std::sort(sorted.begin(), sorted.end());
  char buf[64];
  std::string out;
  out += "\"sent\":" + std::to_string(totals.sent);
  out += ",\"ok\":" + std::to_string(totals.ok);
  out += ",\"shed\":" + std::to_string(totals.shed);
  out += ",\"errors\":" + std::to_string(totals.errors);
  std::snprintf(buf, sizeof(buf), "%.4f", totals.ShedRate());
  out += ",\"shed_rate\":";
  out += buf;
  double throughput =
      wall_s > 0 ? static_cast<double>(totals.ok) / wall_s : 0.0;
  std::snprintf(buf, sizeof(buf), "%.2f", throughput);
  out += ",\"throughput_ok_per_s\":";
  out += buf;
  out += ",\"latency_us\":{\"p50\":" +
         std::to_string(Percentile(sorted, 0.50));
  out += ",\"p90\":" + std::to_string(Percentile(sorted, 0.90));
  out += ",\"p99\":" + std::to_string(Percentile(sorted, 0.99));
  out += ",\"max\":" + std::to_string(sorted.empty() ? 0 : sorted.back());
  out += "}";
  return out;
}

/// Trace pointers into the distributed-trace views: the slowest `n` graded
/// requests (latency descending — the ones worth pulling up in /tracez or
/// /events?trace_id=) and every shed request. Schema-additive fields of the
/// jfeed-bench-loadgen-v1 report.
std::string RenderTraceBlock(const Totals& totals, size_t n) {
  std::vector<std::pair<int64_t, std::string>> slowest = totals.ok_traces;
  std::sort(slowest.begin(), slowest.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (slowest.size() > n) slowest.resize(n);
  std::string out = ",\"slowest_traces\":[";
  for (size_t i = 0; i < slowest.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"latency_us\":" + std::to_string(slowest[i].first);
    out += ",\"trace_id\":\"" + slowest[i].second + "\"}";
  }
  out += "],\"shed_traces\":[";
  for (size_t i = 0; i < totals.shed_traces.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + totals.shed_traces[i] + "\"";
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t port = 0;
  std::string assignment_list = "assignment1,mitx-polynomials,rit-all-g-medals";
  TrafficOptions traffic;
  traffic.submissions = 600;
  traffic.idle_ms = 1000;
  traffic.spike_ms = 4000;
  int64_t connections = 8;
  int64_t deadline_ms = 30000;
  int64_t time_scale = 100;
  std::string json_path = "BENCH_loadgen.json";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", arg);
      return Usage(argv[0]);
    }
    const char* value_text = argv[++i];
    if (std::strcmp(arg, "--assignments") == 0) {
      assignment_list = value_text;
      continue;
    }
    if (std::strcmp(arg, "--json") == 0) {
      json_path = value_text;
      continue;
    }
    int64_t value = 0;
    if (!ParseInt64(value_text, &value)) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", arg, value_text);
      return 2;
    }
    if (std::strcmp(arg, "--port") == 0) {
      port = value;
    } else if (std::strcmp(arg, "--submissions") == 0) {
      traffic.submissions = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--idle-ms") == 0) {
      traffic.idle_ms = value;
    } else if (std::strcmp(arg, "--spike-ms") == 0) {
      traffic.spike_ms = value;
    } else if (std::strcmp(arg, "--connections") == 0) {
      connections = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      traffic.seed = static_cast<uint64_t>(value);
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      deadline_ms = value;
    } else if (std::strcmp(arg, "--time-scale") == 0) {
      time_scale = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    }
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "--port is required (1..65535)\n");
    return Usage(argv[0]);
  }
  if (connections < 1) connections = 1;

  const auto& kb = jfeed::kb::KnowledgeBase::Get();
  std::vector<std::string> ids = SplitIds(assignment_list);
  if (ids.empty()) return Usage(argv[0]);
  std::vector<TrafficAssignment> assignments;
  for (const auto& id : ids) {
    bool known = false;
    for (const auto& kb_id : kb.assignment_ids()) known |= kb_id == id;
    if (!known) {
      std::fprintf(stderr, "unknown assignment '%s' (try jfeedd --list)\n",
                   id.c_str());
      return 2;
    }
    assignments.push_back(TrafficAssignment{id, &kb.assignment(id).generator});
  }

  std::vector<TrafficEvent> schedule =
      jfeed::testing::BuildDeadlineSpikeSchedule(assignments, traffic);
  std::map<std::string, size_t> assignment_index;
  for (size_t i = 0; i < ids.size(); ++i) assignment_index[ids[i]] = i;

  // Pre-render request bodies so the send path is a sleep plus a syscall.
  std::vector<std::string> bodies;
  bodies.reserve(schedule.size());
  for (const auto& event : schedule) {
    std::string body = "{\"id\":\"" + event.id + "\",\"assignment\":\"" +
                       event.assignment + "\",\"source\":";
    jfeed::AppendJsonString(event.source, &body);
    body += "}\n";
    bodies.push_back(std::move(body));
  }

  std::printf("jfeed-loadgen: %zu submissions across %zu assignments -> "
              "port %lld (%lld connections, idle %lldms + spike %lldms, "
              "seed %llu)\n",
              schedule.size(), ids.size(), static_cast<long long>(port),
              static_cast<long long>(connections),
              static_cast<long long>(traffic.idle_ms),
              static_cast<long long>(traffic.spike_ms),
              static_cast<unsigned long long>(traffic.seed));
  std::fflush(stdout);

  std::vector<Sample> samples(schedule.size());
  std::atomic<size_t> next{0};
  auto start = std::chrono::steady_clock::now();

  auto sender = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) return;
      // Open loop: fire at the schedule's offset regardless of how the
      // previous requests fared.
      auto due = start + std::chrono::milliseconds(
                             schedule[i].offset_ms * time_scale / 100);
      std::this_thread::sleep_until(due);
      // Every request is the root of its own distributed trace: the daemon
      // (or broker) adopts this context, so the report's trace ids join
      // directly against /events?trace_id= and the stitched /tracez.
      jfeed::obs::TraceContext ctx = jfeed::obs::MintTraceContext();
      auto sent_at = std::chrono::steady_clock::now();
      auto reply = jfeed::fleet::Fetch(
          static_cast<uint16_t>(port), "POST", "/grade", bodies[i],
          {{"traceparent", jfeed::obs::FormatTraceparent(ctx)}}, deadline_ms);
      auto answered_at = std::chrono::steady_clock::now();
      Sample& sample = samples[i];
      sample.trace_id = jfeed::obs::TraceIdHex(ctx);
      sample.assignment = assignment_index[schedule[i].assignment];
      sample.latency_us =
          std::chrono::duration_cast<std::chrono::microseconds>(answered_at -
                                                                sent_at)
              .count();
      if (!reply.ok()) {
        sample.kind = Sample::Kind::kError;
      } else if (reply.value().status == 200) {
        sample.kind = Sample::Kind::kOk;
      } else if (reply.value().status == 429 ||
                 reply.value().status == 503) {
        sample.kind = Sample::Kind::kShed;
      } else {
        sample.kind = Sample::Kind::kError;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int64_t i = 0; i < connections; ++i) threads.emplace_back(sender);
  for (auto& thread : threads) thread.join();
  double wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  Totals totals;
  std::vector<Totals> per_assignment(ids.size());
  for (const Sample& sample : samples) {
    totals.Fold(sample);
    per_assignment[sample.assignment].Fold(sample);
  }

  std::string report = "{\"schema\":\"jfeed-bench-loadgen-v1\"";
  report += ",\"config\":{\"submissions\":" +
            std::to_string(traffic.submissions);
  report += ",\"connections\":" + std::to_string(connections);
  report += ",\"idle_ms\":" + std::to_string(traffic.idle_ms);
  report += ",\"spike_ms\":" + std::to_string(traffic.spike_ms);
  report += ",\"seed\":" + std::to_string(traffic.seed);
  report += ",\"time_scale\":" + std::to_string(time_scale);
  report += "}";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", wall_s);
  report += ",\"wall_s\":";
  report += buf;
  report += ",\"totals\":{" + RenderBlock(totals, wall_s) +
            RenderTraceBlock(totals, 5) + "}";
  report += ",\"assignments\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) report += ",";
    report += "{\"id\":\"" + ids[i] + "\",";
    report += RenderBlock(per_assignment[i], wall_s);
    report += "}";
  }
  report += "]}";

  std::printf("jfeed-loadgen: %lld ok, %lld shed (rate %.3f), %lld errors "
              "in %.2fs; p99 %lldus\n",
              static_cast<long long>(totals.ok),
              static_cast<long long>(totals.shed), totals.ShedRate(),
              static_cast<long long>(totals.errors), wall_s,
              static_cast<long long>([&] {
                std::vector<int64_t> sorted = totals.ok_latencies_us;
                std::sort(sorted.begin(), sorted.end());
                return Percentile(sorted, 0.99);
              }()));
  if (json_path != "-") {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fputs(report.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("jfeed-loadgen: wrote %s\n", json_path.c_str());
  } else {
    std::puts(report.c_str());
  }
  return totals.errors > 0 ? 1 : 0;
}
