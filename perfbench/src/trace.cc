#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadBuffer {
  std::mutex mu;
  std::vector<Span> done;  // guarded by mu; drained by TakeSpans
  std::vector<Span> open;  // owning thread only
  uint32_t index = 0;
};

// Buffers are never freed: pool threads outlive any one traced pass, and a
// thread_local pointer must never dangle.
struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_root_id{0};
std::atomic<uint64_t> g_op{0};

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    buffer = new ThreadBuffer;
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffer->index = static_cast<uint32_t>(registry.buffers.size());
    registry.buffers.push_back(buffer);
  }
  return *buffer;
}

uint64_t Open(const char* name) {
  ThreadBuffer& buffer = LocalBuffer();
  Span span;
  span.name = name;
  span.id = g_next_id.fetch_add(1);
  span.parent = buffer.open.empty() ? g_root_id.load() : buffer.open.back().id;
  span.op = g_op.load();
  span.thread = buffer.index;
  span.start_ns = NowNs();
  buffer.open.push_back(span);
  return span.id;
}

void Close() {
  ThreadBuffer& buffer = LocalBuffer();
  Span span = buffer.open.back();
  buffer.open.pop_back();
  span.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.done.push_back(span);
}

}  // namespace

void EnableTracing() { g_enabled.store(true); }
void DisableTracing() { g_enabled.store(false); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void BeginOp(uint64_t op, const char* name) {
  if (!TracingEnabled()) return;
  g_op.store(op);
  g_root_id.store(0);
  g_root_id.store(Open(name));
}

void EndOp() {
  if (!TracingEnabled()) return;
  Close();
  g_root_id.store(0);
}

std::vector<Span> TakeSpans() {
  std::vector<Span> out;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> registry_lock(registry.mu);
  for (ThreadBuffer* buffer : registry.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    out.insert(out.end(), buffer->done.begin(), buffer->done.end());
    buffer->done.clear();
  }
  return out;
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span: children
      // on other threads may overlap each other.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t run_start = 0, run_end = 0;
      bool in_run = false;
      for (auto [start, end] : kids) {
        start = std::max(start, span.start_ns);
        end = std::min(end, span.end_ns);
        if (end <= start) continue;
        if (in_run && start <= run_end) {
          run_end = std::max(run_end, end);
          continue;
        }
        if (in_run) covered += run_end - run_start;
        run_start = start;
        run_end = end;
        in_run = true;
      }
      if (in_run) covered += run_end - run_start;
    }
    out[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t origin = 0;
  for (const Span& span : spans) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}%s\n",
                 span.name, span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.op),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(const char* name) : active_(TracingEnabled()) {
  if (active_) Open(name);
}

ScopedSpan::~ScopedSpan() {
  if (active_) Close();
}

}  // namespace perfbench
