// Measurement plumbing: clocks, CPU/RSS probes, the counting allocator,
// quantiles, the Poisson schedule, span storage and the self-tests.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The binary's global allocator counts allocations for the
// serve.allocs_per_row ledger entry. Aligned forms keep the library
// defaults (they pair with the default aligned deletes).
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SleepUntilNs(uint64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SetAllocCounting(bool on) { g_count_allocs.store(on); }
uint64_t AllocCount() { return g_allocs.load(); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

namespace {
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

PoissonSchedule::PoissonSchedule(double rate_per_s, uint64_t seed)
    : rate_(rate_per_s) {
  state_[0] = SplitMix64(&seed);
  state_[1] = SplitMix64(&seed);
}

double PoissonSchedule::NextGapNs() {
  // xorshift128+; the top 53 bits give a uniform double in [0, 1).
  uint64_t s1 = state_[0];
  const uint64_t s0 = state_[1];
  state_[0] = s0;
  s1 ^= s1 << 23;
  state_[1] = s1 ^ s0 ^ (s1 >> 18) ^ (s0 >> 5);
  double u = static_cast<double>((state_[1] + s0) >> 11) * 0x1.0p-53;
  return -std::log1p(-u) / rate_ * 1e9;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool RunSelfTests() {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ok = false;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(Quantile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(Quantile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(Quantile(hundred, 1.0) == 100.0, "p100 of 1..100 is 100");
  expect(Quantile(hundred, 0.0) == 1.0, "p0 of 1..100 is 1");
  expect(Quantile({7.0}, 0.99) == 7.0, "p99 of one sample is the sample");
  expect(std::isnan(Quantile({}, 0.5)), "quantile of nothing is NaN");

  // 200k gaps at 50k/s must average 20 us within 1%, and one seed must
  // give one schedule.
  PoissonSchedule a(50000.0, 7), b(50000.0, 7), c(50000.0, 8);
  double total = 0.0;
  bool same = true, differs = false;
  for (int i = 0; i < 200000; ++i) {
    double ga = a.NextGapNs();
    double gc = c.NextGapNs();
    same = same && ga == b.NextGapNs();
    differs = differs || ga != gc;
    total += ga;
  }
  double mean_rate = 200000.0 / (total * 1e-9);
  expect(std::fabs(mean_rate / 50000.0 - 1.0) < 0.01,
         "Poisson schedule mean rate within 1% of 50k/s");
  expect(same, "one seed gives one schedule");
  expect(differs, "another seed gives another schedule");

  expect(ValidMetricName("p99_us.low"), "p99_us.low is a valid name");
  expect(ValidMetricName("fit.residue_s"), "fit.residue_s is a valid name");
  expect(!ValidMetricName("p99 us"), "names reject spaces");
  expect(!ValidMetricName(""), "names reject the empty string");
  return ok;
}

void SpanLog::AddAll(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.capacity() == 0) spans_.reserve(capacity_);
  for (const Span& span : spans) {
    if (spans_.size() >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    spans_.push_back(span);
  }
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"parent\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"id\":%llu}\n",
                 s.name, s.parent, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
