#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace jfeed::obs {

namespace {

/// Escapes a label value for the Prometheus text format: backslash,
/// double-quote and newline are the three characters the exposition format
/// requires escaped inside `label="..."`.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Escapes HELP text: the format requires backslash and newline escaped on
/// `# HELP` lines (double quotes are legal there). Without this a help
/// string containing a newline splits the line and corrupts every metric
/// after it.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Renders `{k1="v1",k2="v2"}` (plus an optional trailing `le`); empty
/// labels render as nothing unless `le` forces braces.
std::string RenderLabels(const Labels& labels, const std::string& le = "") {
  if (labels.empty() && le.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!le.empty()) {
    if (!first) out += ",";
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

// --- Counter ----------------------------------------------------------------

std::atomic<int64_t>& Counter::Cell() {
  // One cell per (thread, counter). The map's destructor folds every cell
  // into its owner's retired sum, so a scheduler's worker threads can come
  // and go without losing counts or leaking shards. The registry is leaked
  // (never destroyed), so the owners outlive every thread_local destructor.
  struct ThreadCells {
    std::unordered_map<Counter*, std::shared_ptr<std::atomic<int64_t>>> cells;
    ~ThreadCells() {
      for (auto& [counter, cell] : cells) counter->Retire(cell.get());
    }
  };
  thread_local ThreadCells local;
  auto& slot = local.cells[this];
  if (slot == nullptr) {
    slot = std::make_shared<std::atomic<int64_t>>(0);
    std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(slot);
  }
  return *slot;
}

void Counter::Increment(int64_t delta) {
  if (!Registry::Global().enabled()) return;
  Cell().fetch_add(delta, std::memory_order_relaxed);
}

int64_t Counter::Value() const {
  // retired_ is read under mu_ so a concurrent Retire (which removes a cell
  // and folds it into retired_ under the same lock) is seen atomically.
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = retired_.load(std::memory_order_relaxed);
  for (const auto& cell : cells_) {
    total += cell->load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Retire(const std::atomic<int64_t>* cell) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].get() == cell) {
      retired_.fetch_add(cells_[i]->load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      cells_.erase(cells_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void Counter::ResetLocked() {
  retired_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& cell : cells_) cell->store(0, std::memory_order_relaxed);
}

// --- Gauge ------------------------------------------------------------------

void Gauge::Set(int64_t value) {
  if (!Registry::Global().enabled()) return;
  value_.store(value, std::memory_order_relaxed);
}

void Gauge::Add(int64_t delta) {
  if (!Registry::Global().enabled()) return;
  value_.fetch_add(delta, std::memory_order_relaxed);
}

int64_t Gauge::Value() const {
  return value_.load(std::memory_order_relaxed);
}

// --- Histogram --------------------------------------------------------------

int Histogram::BucketIndex(int64_t value) {
  if (value <= 1) return 0;
  int index = std::bit_width(static_cast<uint64_t>(value - 1));
  return index < kBucketCount ? index : kBucketCount - 1;
}

int64_t Histogram::BucketBound(int index) {
  if (index >= kBucketCount - 1) return INT64_MAX;
  return int64_t{1} << index;
}

Histogram::Shard& Histogram::Cell() {
  struct ThreadShards {
    std::unordered_map<Histogram*, std::shared_ptr<Shard>> shards;
    ~ThreadShards() {
      for (auto& [histogram, shard] : shards) histogram->Retire(shard.get());
    }
  };
  thread_local ThreadShards local;
  auto& slot = local.shards[this];
  if (slot == nullptr) {
    slot = std::make_shared<Shard>();
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(slot);
  }
  return *slot;
}

void Histogram::Record(int64_t value) {
  if (!Registry::Global().enabled()) return;
  if (value < 0) value = 0;
  Shard& shard = Cell();
  shard.buckets[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::RecordWithExemplar(int64_t value,
                                   const std::string& trace_id) {
  Record(value);
  if (!Registry::Global().enabled() || trace_id.empty()) return;
  if (value < 0) value = 0;
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  HistogramExemplar& slot =
      exemplars_[static_cast<size_t>(BucketIndex(value))];
  slot.value = value;
  slot.trace_id = trace_id;
}

std::vector<std::pair<int, HistogramExemplar>> Histogram::Exemplars() const {
  std::vector<std::pair<int, HistogramExemplar>> out;
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  for (int i = 0; i < kBucketCount; ++i) {
    if (!exemplars_[static_cast<size_t>(i)].trace_id.empty()) {
      out.emplace_back(i, exemplars_[static_cast<size_t>(i)]);
    }
  }
  return out;
}

int64_t Histogram::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = retired_.count.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    total += shard->count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = retired_.sum.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    total += shard->sum.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::CumulativeCount(int index) const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (int b = 0; b <= index && b < kBucketCount; ++b) {
    total += retired_.buckets[static_cast<size_t>(b)].load(
        std::memory_order_relaxed);
    for (const auto& shard : shards_) {
      total += shard->buckets[static_cast<size_t>(b)].load(
          std::memory_order_relaxed);
    }
  }
  return total;
}

void Histogram::Retire(const Shard* shard) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() != shard) continue;
    for (int b = 0; b < kBucketCount; ++b) {
      retired_.buckets[static_cast<size_t>(b)].fetch_add(
          shards_[i]->buckets[static_cast<size_t>(b)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    retired_.count.fetch_add(
        shards_[i]->count.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    retired_.sum.fetch_add(shards_[i]->sum.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    shards_.erase(shards_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

void Histogram::ResetLocked() {
  std::lock_guard<std::mutex> lock(mu_);
  auto zero = [](Shard& shard) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  };
  zero(retired_);
  for (auto& shard : shards_) zero(*shard);
  std::lock_guard<std::mutex> exemplar_lock(exemplar_mu_);
  for (auto& exemplar : exemplars_) exemplar = HistogramExemplar{};
}

// --- Registry ---------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked on purpose: instrument cells are folded back by thread_local
  // destructors, which must never outlive the registry.
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Family* Registry::GetFamilyLocked(const std::string& name,
                                            const std::string& help,
                                            Kind kind) {
  for (auto& family : families_) {
    if (family->name == name) return family.get();
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->kind = kind;
  families_.push_back(std::move(family));
  return families_.back().get();
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, Kind::kCounter);
  for (size_t i = 0; i < family->label_sets.size(); ++i) {
    if (family->label_sets[i] == labels) return family->counters[i].get();
  }
  family->label_sets.push_back(labels);
  family->counters.emplace_back(new Counter());
  family->gauges.emplace_back(nullptr);
  family->histograms.emplace_back(nullptr);
  return family->counters.back().get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, Kind::kGauge);
  for (size_t i = 0; i < family->label_sets.size(); ++i) {
    if (family->label_sets[i] == labels) return family->gauges[i].get();
  }
  family->label_sets.push_back(labels);
  family->counters.emplace_back(nullptr);
  family->gauges.emplace_back(new Gauge());
  family->histograms.emplace_back(nullptr);
  return family->gauges.back().get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = GetFamilyLocked(name, help, Kind::kHistogram);
  for (size_t i = 0; i < family->label_sets.size(); ++i) {
    if (family->label_sets[i] == labels) return family->histograms[i].get();
  }
  family->label_sets.push_back(labels);
  family->counters.emplace_back(nullptr);
  family->gauges.emplace_back(nullptr);
  family->histograms.emplace_back(new Histogram());
  return family->histograms.back().get();
}

std::string Registry::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Deterministic output: families by name, instances by rendered labels.
  std::vector<const Family*> ordered;
  ordered.reserve(families_.size());
  for (const auto& family : families_) ordered.push_back(family.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Family* a, const Family* b) { return a->name < b->name; });

  std::string out;
  for (const Family* family : ordered) {
    out += "# HELP " + family->name + " " + EscapeHelp(family->help) + "\n";
    out += "# TYPE " + family->name + " ";
    switch (family->kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    std::vector<size_t> order(family->label_sets.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [family](size_t a, size_t b) {
      return RenderLabels(family->label_sets[a]) <
             RenderLabels(family->label_sets[b]);
    });
    for (size_t i : order) {
      const Labels& labels = family->label_sets[i];
      switch (family->kind) {
        case Kind::kCounter:
          out += family->name + RenderLabels(labels) + " " +
                 std::to_string(family->counters[i]->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += family->name + RenderLabels(labels) + " " +
                 std::to_string(family->gauges[i]->Value()) + "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& histogram = *family->histograms[i];
          for (int b = 0; b < Histogram::kBucketCount; ++b) {
            std::string le = b == Histogram::kBucketCount - 1
                                 ? "+Inf"
                                 : std::to_string(Histogram::BucketBound(b));
            out += family->name + "_bucket" + RenderLabels(labels, le) + " " +
                   std::to_string(histogram.CumulativeCount(b)) + "\n";
          }
          out += family->name + "_sum" + RenderLabels(labels) + " " +
                 std::to_string(histogram.Sum()) + "\n";
          out += family->name + "_count" + RenderLabels(labels) + " " +
                 std::to_string(histogram.Count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& family : families_) {
    for (size_t i = 0; i < family->label_sets.size(); ++i) {
      if (family->counters[i] != nullptr) family->counters[i]->ResetLocked();
      if (family->gauges[i] != nullptr) {
        family->gauges[i]->value_.store(0, std::memory_order_relaxed);
      }
      if (family->histograms[i] != nullptr) {
        family->histograms[i]->ResetLocked();
      }
    }
  }
}

}  // namespace jfeed::obs
