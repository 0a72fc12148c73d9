#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

namespace kgbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FsTypeName(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext2/ext3/ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0xF2F52010UL: return "f2fs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

HostInfo DetectHost(const std::string& store_dir) {
  HostInfo host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.cpu = ReadCpuModel();
  host.compiler = KGBENCH_COMPILER;
  host.build_type = KGBENCH_BUILD_TYPE;
  struct utsname u;
  if (uname(&u) == 0) {
    host.kernel = std::string(u.sysname) + " " + u.release;
  }
  host.store_fs = FsTypeName(store_dir);
  return host;
}

std::string HostJson(const HostInfo& host) {
  return "{\"nproc\": " + std::to_string(host.nproc) + ", \"cpu\": \"" +
         JsonEscape(host.cpu) + "\", \"compiler\": \"" +
         JsonEscape(host.compiler) + "\", \"build_type\": \"" +
         JsonEscape(host.build_type) + "\", \"kernel\": \"" +
         JsonEscape(host.kernel) + "\", \"store_fs\": \"" +
         JsonEscape(host.store_fs) + "\"}";
}

void RestartPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  // Writing 5 resets the kernel's high-water mark (VmHWM) to the current
  // resident size.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shortest form that reads back to the same double.
  for (int precision = 6; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(entries_[i].name) + "\": {\"value\": " +
           JsonNumber(entries_[i].value) + ", \"unit\": \"" +
           JsonEscape(entries_[i].unit) + "\"}";
  }
  return out + "}";
}

std::string MetricSet::Table() const {
  std::string out;
  for (const Entry& e : entries_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool SameResult(const kgacc::EvaluationResult& a,
                const kgacc::EvaluationResult& b) {
  if (a.trace.size() != b.trace.size()) return false;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i].n != b.trace[i].n ||
        !SameBits(a.trace[i].moe, b.trace[i].moe) ||
        !SameBits(a.trace[i].mu, b.trace[i].mu)) {
      return false;
    }
  }
  return SameBits(a.mu, b.mu) && SameBits(a.interval.lower, b.interval.lower) &&
         SameBits(a.interval.upper, b.interval.upper) &&
         a.annotated_triples == b.annotated_triples &&
         a.distinct_triples == b.distinct_triples &&
         a.distinct_entities == b.distinct_entities &&
         SameBits(a.cost_seconds, b.cost_seconds) &&
         SameBits(a.cost_hours, b.cost_hours) && a.iterations == b.iterations &&
         a.winning_prior == b.winning_prior && SameBits(a.deff, b.deff) &&
         a.converged == b.converged && a.stop_reason == b.stop_reason &&
         a.degraded == b.degraded && a.degradation_note == b.degradation_note;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

/// Upper bound on recorded spans, so a long traced run stays small in
/// memory; counters keep counting past it.
constexpr size_t kMaxSpans = 60000;

struct SpanBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span{1};
std::atomic<size_t> g_span_count{0};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_registry_mu;
std::vector<std::unique_ptr<SpanBuffer>> g_span_buffers;
std::vector<std::unique_ptr<ThreadProbe>> g_probes;

SpanBuffer& LocalSpans() {
  thread_local SpanBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_span_buffers.push_back(std::make_unique<SpanBuffer>());
    g_span_buffers.back()->thread =
        static_cast<uint32_t>(g_span_buffers.size() - 1);
    return g_span_buffers.back().get();
  }();
  return *buffer;
}

thread_local uint64_t t_current_span = 0;

}  // namespace

void Tracer::Enable(bool on) { g_tracing.store(on); }
bool Tracer::enabled() { return g_tracing.load(std::memory_order_relaxed); }
uint64_t Tracer::NewId() { return g_next_span.fetch_add(1); }

int64_t Tracer::ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

int64_t Tracer::Now() { return ToNs(Clock::now()); }

void Tracer::Record(const Span& span) {
  if (!enabled()) return;
  if (g_span_count.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    return;
  }
  SpanBuffer& buffer = LocalSpans();
  Span copy = span;
  copy.thread = buffer.thread;
  buffer.spans.push_back(copy);
}

size_t Tracer::ThreadMark() { return LocalSpans().spans.size(); }

void Tracer::PatchAudit(size_t mark, uint64_t audit) {
  std::vector<Span>& spans = LocalSpans().spans;
  for (size_t i = mark; i < spans.size(); ++i) spans[i].audit = audit;
}

std::string Tracer::WriteFile(const std::string& path,
                              const std::string& header_json) {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto& buffer : g_span_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  // Self time: duration minus the union of the children's intervals.
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Summary {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summary;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "{\"header\": %s,\n\"spans\": [\n", header_json.c_str());
  }
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = iv[0].first, cur_end = iv[0].second;
      for (size_t k = 1; k <= iv.size(); ++k) {
        if (k < iv.size() && iv[k].first <= cur_end) {
          cur_end = std::max(cur_end, iv[k].second);
          continue;
        }
        const int64_t lo = std::max(cur_start, s.start_ns);
        const int64_t hi = std::min(cur_end, s.end_ns);
        if (hi > lo) covered += hi - lo;
        if (k < iv.size()) {
          cur_start = iv[k].first;
          cur_end = iv[k].second;
        }
      }
    }
    const int64_t duration = s.end_ns - s.start_ns;
    const int64_t self = std::max<int64_t>(0, duration - covered);
    Summary& sum = summary[s.name];
    ++sum.count;
    sum.total_ms += static_cast<double>(duration) / 1e6;
    sum.self_ms += static_cast<double>(self) / 1e6;
    if (out != nullptr) {
      std::fprintf(out,
                   "{\"id\": %llu, \"parent\": %llu, \"audit\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"self_ns\": %lld, \"thread\": %u}%s\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.audit), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self), s.thread,
                   i + 1 < all.size() ? "," : "");
    }
  }
  std::string text;
  if (out != nullptr) std::fprintf(out, "],\n\"self_time\": [\n");
  size_t n = 0;
  for (const auto& [name, sum] : summary) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  span %-24s count %8llu  total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(sum.count),
                  sum.total_ms, sum.self_ms);
    text += line;
    if (out != nullptr) {
      std::fprintf(out,
                   "{\"name\": \"%s\", \"count\": %llu, \"total_ms\": %s, "
                   "\"self_ms\": %s}%s\n",
                   name.c_str(), static_cast<unsigned long long>(sum.count),
                   JsonNumber(sum.total_ms).c_str(),
                   JsonNumber(sum.self_ms).c_str(),
                   ++n < summary.size() ? "," : "");
    }
  }
  if (out != nullptr) {
    std::fprintf(out, "]}\n");
    std::fclose(out);
  }
  return text;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t audit,
                       bool active)
    : active_(active && Tracer::enabled()) {
  if (!active_) return;
  span_.id = Tracer::NewId();
  span_.parent = parent != 0 ? parent : t_current_span;
  span_.audit = audit;
  span_.name = name;
  span_.start_ns = Tracer::Now();
  t_current_span = span_.id;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = Tracer::Now();
  t_current_span = span_.parent;
  Tracer::Record(span_);
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

ThreadProbe& LocalProbe() {
  thread_local ThreadProbe* probe = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_probes.push_back(std::make_unique<ThreadProbe>());
    return g_probes.back().get();
  }();
  return *probe;
}

std::vector<ThreadProbe*> AllProbes() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<ThreadProbe*> out;
  for (const auto& p : g_probes) out.push_back(p.get());
  return out;
}

void ResetProbes() {
  for (ThreadProbe* p : AllProbes()) {
    const uint64_t jobs = p->job_count;
    *p = ThreadProbe{};
    p->job_count = jobs;
  }
}

double ClockPairNs() {
  static const double cost = [] {
    constexpr int kReps = 200000;
    const auto start = Clock::now();
    int64_t sink = 0;
    for (int i = 0; i < kReps; ++i) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      sink += (b - a).count();
    }
    const double total =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    return sink >= 0 ? total / kReps : 0.0;
  }();
  return cost;
}

namespace {

/// Every 32nd job a thread runs gets spans below the audit level.
constexpr uint64_t kSpanEvery = 32;

}  // namespace

kgacc::Status ProbeSampler::NextBatch(kgacc::Rng* rng,
                                      kgacc::SampleBatch* batch) {
  if (!timed_) return inner_->NextBatch(rng, batch);
  ThreadProbe& p = LocalProbe();
  const auto start = Clock::now();
  p.step_start = start;
  p.step_span = p.sampled ? Tracer::NewId() : 0;
  const kgacc::Status status = inner_->NextBatch(rng, batch);
  const auto end = Clock::now();
  ++p.batches;
  p.batch_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  if (p.sampled) {
    Span s;
    s.id = Tracer::NewId();
    s.parent = p.step_span;
    s.name = "sampling.next_batch";
    s.start_ns = Tracer::ToNs(start);
    s.end_ns = Tracer::ToNs(end);
    Tracer::Record(s);
  }
  return status;
}

void ProbeSampler::Reset() {
  inner_->Reset();
  ThreadProbe& p = LocalProbe();
  p.job_start = Clock::now();
  if (!timed_) return;
  if (p.audit_span == 0 || !p.sampled) {
    // First Reset of a new job (the service and the session constructor
    // both reset, back to back): decide whether this job gets spans.
    p.sampled = Tracer::enabled() && (p.job_count % kSpanEvery == 0);
    p.audit_span = Tracer::NewId();
    p.span_mark = Tracer::ThreadMark();
  }
}

std::unique_ptr<kgacc::Sampler> ProbeSampler::Clone() const {
  std::unique_ptr<kgacc::Sampler> inner = inner_->Clone();
  if (inner == nullptr) return nullptr;
  return std::make_unique<ProbeSampler>(std::move(inner), timed_);
}

uint32_t ProbeAnnotator::AnnotateUnit(const kgacc::KgView& kg,
                                      uint64_t cluster,
                                      std::span<const uint64_t> offsets,
                                      kgacc::Rng* rng) {
  ThreadProbe& p = LocalProbe();
  const auto start = Clock::now();
  const uint32_t correct = inner_->AnnotateUnit(kg, cluster, offsets, rng);
  const auto end = Clock::now();
  ++p.units;
  p.oracle_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  if (p.sampled) {
    Span s;
    s.id = Tracer::NewId();
    s.parent = p.step_span;
    s.name = "oracle.annotate_unit";
    s.start_ns = Tracer::ToNs(start);
    s.end_ns = Tracer::ToNs(end);
    Tracer::Record(s);
  }
  return correct;
}

void ProbeStepDone() {
  ThreadProbe& p = LocalProbe();
  const auto end = Clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(end - p.step_start).count();
  ++p.steps;
  p.step_ns_sum += ns;
  p.step_us.push_back(static_cast<float>(ns / 1000.0));
  if (p.sampled) {
    Span s;
    s.id = p.step_span;
    s.parent = p.audit_span;
    s.name = "session.step";
    s.start_ns = Tracer::ToNs(p.step_start);
    s.end_ns = Tracer::ToNs(end);
    Tracer::Record(s);
  }
}

double ProbeJobDone(uint64_t audit, uint64_t parent_span) {
  ThreadProbe& p = LocalProbe();
  const auto end = Clock::now();
  if (p.sampled) {
    Span s;
    s.id = p.audit_span;
    s.parent = parent_span;
    s.name = "audit";
    s.start_ns = Tracer::ToNs(p.job_start);
    s.end_ns = Tracer::ToNs(end);
    Tracer::Record(s);
    Tracer::PatchAudit(p.span_mark, audit);
  }
  p.sampled = false;
  p.audit_span = 0;
  ++p.job_count;
  return MsBetween(p.job_start, end);
}

}  // namespace kgbench
