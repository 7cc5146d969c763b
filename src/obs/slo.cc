#include "obs/slo.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.h"
#include "support/json.h"

namespace jfeed::obs {
namespace {

/// Budget fraction in [1e-6, 1]: the share of events allowed to be bad.
double BudgetFraction(const SloPolicy& policy) {
  int64_t budget_ppm = 1'000'000 - policy.availability_target_ppm;
  if (budget_ppm < 1) budget_ppm = 1;  // A 100% target still needs a floor.
  return static_cast<double>(budget_ppm) / 1e6;
}

int64_t BurnMilli(int64_t bad, int64_t total, const SloPolicy& policy) {
  if (total <= 0) return 0;
  double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  return std::llround(1000.0 * bad_fraction / BudgetFraction(policy));
}

/// Fills every derived field of `slo` from its raw counts. Shared by the
/// in-process snapshot and the broker-side aggregation so both report the
/// same arithmetic.
void DeriveBudget(const SloPolicy& policy, AssignmentSlo* slo) {
  slo->events_total = slo->good_total + slo->bad_total;
  double allowed = static_cast<double>(slo->window_events) *
                   BudgetFraction(policy);
  if (slo->window_bad <= 0 || allowed <= 0.0) {
    slo->budget_consumed_ppm = 0;
  } else {
    slo->budget_consumed_ppm = std::llround(
        1e6 * static_cast<double>(slo->window_bad) / allowed);
  }
  slo->budget_remaining_ppm =
      std::max<int64_t>(0, 1'000'000 - slo->budget_consumed_ppm);
  slo->burn_rate_fast_milli = BurnMilli(slo->fast_bad, slo->fast_events,
                                        policy);
  slo->burn_rate_slow_milli = BurnMilli(slo->slow_bad, slo->slow_events,
                                        policy);
  slo->fast_burn = slo->fast_events >= policy.min_events &&
                   slo->burn_rate_fast_milli >=
                       policy.fast_burn_threshold_milli;
  slo->slow_burn = slo->slow_events >= policy.min_events &&
                   slo->burn_rate_slow_milli >=
                       policy.slow_burn_threshold_milli;
}

void AppendPolicyJson(const SloPolicy& policy, std::string* out) {
  *out += "{\"latency_threshold_us\":";
  *out += std::to_string(policy.latency_threshold_us);
  *out += ",\"availability_target_ppm\":";
  *out += std::to_string(policy.availability_target_ppm);
  *out += ",\"window_s\":";
  *out += std::to_string(policy.window_s);
  *out += ",\"fast_window_s\":";
  *out += std::to_string(policy.fast_window_s);
  *out += ",\"slow_window_s\":";
  *out += std::to_string(policy.slow_window_s);
  *out += ",\"fast_burn_threshold_milli\":";
  *out += std::to_string(policy.fast_burn_threshold_milli);
  *out += ",\"slow_burn_threshold_milli\":";
  *out += std::to_string(policy.slow_burn_threshold_milli);
  *out += ",\"min_events\":";
  *out += std::to_string(policy.min_events);
  *out += "}";
}

void AppendAssignmentJson(const AssignmentSlo& slo, bool with_exemplars,
                          std::string* out) {
  *out += "{\"assignment\":";
  AppendJsonString(slo.assignment, out);
  *out += ",\"events_total\":";
  *out += std::to_string(slo.events_total);
  *out += ",\"good_total\":";
  *out += std::to_string(slo.good_total);
  *out += ",\"bad_total\":";
  *out += std::to_string(slo.bad_total);
  *out += ",\"shed_total\":";
  *out += std::to_string(slo.shed_total);
  *out += ",\"window_events\":";
  *out += std::to_string(slo.window_events);
  *out += ",\"window_bad\":";
  *out += std::to_string(slo.window_bad);
  *out += ",\"budget_consumed_ppm\":";
  *out += std::to_string(slo.budget_consumed_ppm);
  *out += ",\"budget_remaining_ppm\":";
  *out += std::to_string(slo.budget_remaining_ppm);
  *out += ",\"fast_events\":";
  *out += std::to_string(slo.fast_events);
  *out += ",\"fast_bad\":";
  *out += std::to_string(slo.fast_bad);
  *out += ",\"slow_events\":";
  *out += std::to_string(slo.slow_events);
  *out += ",\"slow_bad\":";
  *out += std::to_string(slo.slow_bad);
  *out += ",\"burn_rate_fast_milli\":";
  *out += std::to_string(slo.burn_rate_fast_milli);
  *out += ",\"burn_rate_slow_milli\":";
  *out += std::to_string(slo.burn_rate_slow_milli);
  *out += ",\"fast_burn\":";
  *out += slo.fast_burn ? "true" : "false";
  *out += ",\"slow_burn\":";
  *out += slo.slow_burn ? "true" : "false";
  if (with_exemplars) {
    *out += ",\"exemplars\":[";
    auto exemplars =
        Registry::Global()
            .GetHistogram("jfeed_grade_duration_us",
                          "end-to-end grade duration in microseconds",
                          {{"assignment", slo.assignment}})
            ->Exemplars();
    for (size_t i = 0; i < exemplars.size(); ++i) {
      if (i > 0) *out += ",";
      *out += "{\"le_us\":";
      *out += std::to_string(Histogram::BucketBound(exemplars[i].first));
      *out += ",\"latency_us\":";
      *out += std::to_string(exemplars[i].second.value);
      *out += ",\"trace_id\":";
      AppendJsonString(exemplars[i].second.trace_id, out);
      *out += "}";
    }
    *out += "]";
  }
  *out += "}";
}

// --- Minimal field extraction for AggregateSloz -----------------------------
// Parses only the flat JSON this file itself renders; enough structure
// awareness (quoted-key search) to never confuse "events_total" with
// "window_events".

bool FindNumberField(const std::string& obj, const std::string& key,
                     int64_t* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = obj.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  bool negative = pos < obj.size() && obj[pos] == '-';
  if (negative) ++pos;
  if (pos >= obj.size() || obj[pos] < '0' || obj[pos] > '9') return false;
  int64_t value = 0;
  while (pos < obj.size() && obj[pos] >= '0' && obj[pos] <= '9') {
    value = value * 10 + (obj[pos] - '0');
    ++pos;
  }
  *out = negative ? -value : value;
  return true;
}

bool FindStringField(const std::string& obj, const std::string& key,
                     std::string* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = obj.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  auto value = ParseJsonString(obj, &pos);
  if (!value.ok()) return false;
  *out = std::move(value).value();
  return true;
}

/// Splits the "assignments":[...] array of a /sloz body into its top-level
/// objects, tolerating the nested exemplar objects inside each.
std::vector<std::string> SplitAssignmentObjects(const std::string& body) {
  std::vector<std::string> out;
  size_t array_pos = body.find("\"assignments\":[");
  if (array_pos == std::string::npos) return out;
  size_t i = array_pos + std::string("\"assignments\":[").size();
  int depth = 0;
  size_t start = 0;
  bool in_string = false;
  for (; i < body.size(); ++i) {
    char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) out.push_back(body.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

SloPolicy ParsePolicy(const std::string& body) {
  SloPolicy policy;
  FindNumberField(body, "latency_threshold_us", &policy.latency_threshold_us);
  FindNumberField(body, "availability_target_ppm",
                  &policy.availability_target_ppm);
  FindNumberField(body, "window_s", &policy.window_s);
  FindNumberField(body, "fast_window_s", &policy.fast_window_s);
  FindNumberField(body, "slow_window_s", &policy.slow_window_s);
  FindNumberField(body, "fast_burn_threshold_milli",
                  &policy.fast_burn_threshold_milli);
  FindNumberField(body, "slow_burn_threshold_milli",
                  &policy.slow_burn_threshold_milli);
  FindNumberField(body, "min_events", &policy.min_events);
  return policy;
}

}  // namespace

// --- SloTracker -------------------------------------------------------------

SloTracker& SloTracker::Global() {
  static SloTracker* tracker = new SloTracker();
  return *tracker;
}

int64_t SloTracker::NowS() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SloTracker::Configure(const SloPolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
  if (policy_.window_s < 1) policy_.window_s = 1;
  if (policy_.fast_window_s < 1) policy_.fast_window_s = 1;
  if (policy_.slow_window_s < 1) policy_.slow_window_s = 1;
  policy_.fast_window_s = std::min(policy_.fast_window_s, policy_.window_s);
  policy_.slow_window_s = std::min(policy_.slow_window_s, policy_.window_s);
  tenants_.clear();
  enabled_ = true;
}

void SloTracker::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
  tenants_.clear();
}

bool SloTracker::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

SloPolicy SloTracker::policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

void SloTracker::RecordGrade(const std::string& assignment,
                             int64_t latency_us, int64_t now_s) {
  RecordEvent(assignment, latency_us, /*shed=*/false, now_s);
}

void SloTracker::RecordShed(const std::string& assignment, int64_t now_s) {
  RecordEvent(assignment, /*latency_us=*/0, /*shed=*/true, now_s);
}

void SloTracker::RecordEvent(const std::string& assignment,
                             int64_t latency_us, bool shed, int64_t now_s) {
  Counter* events = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return;
    const bool bad = shed || latency_us > policy_.latency_threshold_us;
    auto [it, created] = tenants_.try_emplace(assignment);
    Tenant& tenant = it->second;
    Registry& registry = Registry::Global();
    if (created) {
      tenant.slots.resize(static_cast<size_t>(policy_.window_s));
      tenant.budget_remaining = registry.GetGauge(
          "jfeed_slo_budget_remaining_ppm",
          "rolling-window error budget remaining, parts per million",
          {{"assignment", assignment}});
      tenant.burn_fast = registry.GetGauge(
          "jfeed_slo_burn_rate_milli",
          "error-budget burn rate in milli-units (1000 = 1x)",
          {{"assignment", assignment}, {"window", "fast"}});
      tenant.burn_slow = registry.GetGauge(
          "jfeed_slo_burn_rate_milli",
          "error-budget burn rate in milli-units (1000 = 1x)",
          {{"assignment", assignment}, {"window", "slow"}});
      tenant.fast_burn = registry.GetGauge(
          "jfeed_slo_fast_burn",
          "1 while the assignment's fast burn window is over threshold",
          {{"assignment", assignment}});
    }
    const size_t index = static_cast<size_t>(now_s % policy_.window_s);
    Slot& slot = tenant.slots[index];
    if (slot.sec != now_s) {
      slot.sec = now_s;
      slot.total = 0;
      slot.bad = 0;
    }
    ++slot.total;
    if (bad) {
      ++slot.bad;
      ++tenant.bad_total;
      if (shed) ++tenant.shed_total;
    } else {
      ++tenant.good_total;
    }
    if (tenant.memo_sec != now_s) {
      tenant.memo = CountWindowsLocked(tenant, now_s, index);
      tenant.memo_sec = now_s;
    }
    WindowCounts counts = tenant.memo;
    counts.Add(slot, /*age=*/0, policy_);
    AssignmentSlo slo;
    slo.good_total = tenant.good_total;
    slo.bad_total = tenant.bad_total;
    counts.CopyTo(&slo);
    DeriveBudget(policy_, &slo);
    tenant.budget_remaining->Set(slo.budget_remaining_ppm);
    tenant.burn_fast->Set(slo.burn_rate_fast_milli);
    tenant.burn_slow->Set(slo.burn_rate_slow_milli);
    tenant.fast_burn->Set(slo.fast_burn ? 1 : 0);
    Counter*& counter = bad ? tenant.bad_events : tenant.good_events;
    if (counter == nullptr) {
      counter = registry.GetCounter(
          "jfeed_slo_events_total",
          "SLO events by assignment and budget result",
          {{"assignment", assignment}, {"result", bad ? "bad" : "good"}});
    }
    events = counter;
  }
  events->Increment();
}

void SloTracker::WindowCounts::Add(const Slot& slot, int64_t age,
                                   const SloPolicy& policy) {
  if (age < 0 || age >= policy.window_s) return;
  window_events += slot.total;
  window_bad += slot.bad;
  if (age < policy.fast_window_s) {
    fast_events += slot.total;
    fast_bad += slot.bad;
  }
  if (age < policy.slow_window_s) {
    slow_events += slot.total;
    slow_bad += slot.bad;
  }
}

void SloTracker::WindowCounts::CopyTo(AssignmentSlo* slo) const {
  slo->window_events = window_events;
  slo->window_bad = window_bad;
  slo->fast_events = fast_events;
  slo->fast_bad = fast_bad;
  slo->slow_events = slow_events;
  slo->slow_bad = slow_bad;
}

SloTracker::WindowCounts SloTracker::CountWindowsLocked(const Tenant& tenant,
                                                        int64_t now_s,
                                                        size_t skip) const {
  WindowCounts counts;
  for (size_t i = 0; i < tenant.slots.size(); ++i) {
    const Slot& slot = tenant.slots[i];
    if (i != skip && slot.sec >= 0) counts.Add(slot, now_s - slot.sec, policy_);
  }
  return counts;
}

AssignmentSlo SloTracker::SummarizeLocked(const std::string& assignment,
                                          const Tenant& tenant,
                                          int64_t now_s) const {
  AssignmentSlo slo;
  slo.assignment = assignment;
  slo.good_total = tenant.good_total;
  slo.bad_total = tenant.bad_total;
  slo.shed_total = tenant.shed_total;
  CountWindowsLocked(tenant, now_s, tenant.slots.size()).CopyTo(&slo);
  DeriveBudget(policy_, &slo);
  return slo;
}

std::vector<AssignmentSlo> SloTracker::Snapshot(int64_t now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AssignmentSlo> out;
  out.reserve(tenants_.size());
  for (const auto& [assignment, tenant] : tenants_) {
    out.push_back(SummarizeLocked(assignment, tenant, now_s));
  }
  return out;
}

bool SloTracker::FastBurnAny(int64_t now_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  for (const auto& [assignment, tenant] : tenants_) {
    if (SummarizeLocked(assignment, tenant, now_s).fast_burn) return true;
  }
  return false;
}

std::string SloTracker::RenderSlozJson(int64_t now_s) const {
  SloPolicy policy;
  std::vector<AssignmentSlo> assignments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    policy = policy_;
    assignments.reserve(tenants_.size());
    for (const auto& [assignment, tenant] : tenants_) {
      assignments.push_back(SummarizeLocked(assignment, tenant, now_s));
    }
  }
  std::string out = "{\"policy\":";
  AppendPolicyJson(policy, &out);
  out += ",\"assignments\":[";
  for (size_t i = 0; i < assignments.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    AppendAssignmentJson(assignments[i], /*with_exemplars=*/true, &out);
  }
  out += "\n]}\n";
  return out;
}

// --- AggregateSloz ----------------------------------------------------------

std::string AggregateSloz(
    const std::vector<std::pair<int, std::string>>& worker_bodies) {
  SloPolicy policy;
  bool have_policy = false;
  int workers = 0;
  std::map<std::string, AssignmentSlo> merged;
  for (const auto& [worker_id, body] : worker_bodies) {
    (void)worker_id;
    std::vector<std::string> objects = SplitAssignmentObjects(body);
    if (body.find("\"policy\":") == std::string::npos) continue;
    if (!have_policy) {
      policy = ParsePolicy(body);
      have_policy = true;
    }
    ++workers;
    for (const std::string& obj : objects) {
      std::string assignment;
      if (!FindStringField(obj, "assignment", &assignment)) continue;
      AssignmentSlo& slo = merged[assignment];
      slo.assignment = assignment;
      int64_t value = 0;
      if (FindNumberField(obj, "good_total", &value)) slo.good_total += value;
      if (FindNumberField(obj, "bad_total", &value)) slo.bad_total += value;
      if (FindNumberField(obj, "shed_total", &value)) slo.shed_total += value;
      if (FindNumberField(obj, "window_events", &value)) {
        slo.window_events += value;
      }
      if (FindNumberField(obj, "window_bad", &value)) slo.window_bad += value;
      if (FindNumberField(obj, "fast_events", &value)) {
        slo.fast_events += value;
      }
      if (FindNumberField(obj, "fast_bad", &value)) slo.fast_bad += value;
      if (FindNumberField(obj, "slow_events", &value)) {
        slo.slow_events += value;
      }
      if (FindNumberField(obj, "slow_bad", &value)) slo.slow_bad += value;
    }
  }
  std::string out = "{\"workers\":";
  out += std::to_string(workers);
  out += ",\"policy\":";
  AppendPolicyJson(policy, &out);
  out += ",\"assignments\":[";
  bool first = true;
  for (auto& [assignment, slo] : merged) {
    DeriveBudget(policy, &slo);
    if (!first) out += ",";
    first = false;
    out += "\n";
    AppendAssignmentJson(slo, /*with_exemplars=*/false, &out);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace jfeed::obs
