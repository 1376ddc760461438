#include "common/trace.h"

#include <atomic>
#include <fstream>

#include "common/mutex.h"
#include "common/str_format.h"

namespace mwsj {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

// One thread's cached (tracer id -> buffer) bindings. Tracer ids are
// process-unique and never reused, so an entry for a destroyed tracer can
// never be matched again — stale pointers are dead weight, not dangling
// derefs. The vector stays tiny (one entry per tracer this thread ever
// emitted into) and the lookup is a linear scan of a few elements.
struct TlsBinding {
  uint64_t tracer_id;
  void* buffer;
};
thread_local std::vector<TlsBinding> t_bindings;

std::string EscapeJsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  for (const TlsBinding& b : t_bindings) {
    if (b.tracer_id == id_) return static_cast<ThreadBuffer*>(b.buffer);
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  ThreadBuffer* raw = buffer.get();
  {
    MutexLock lock(&mu_);
    raw->tid = static_cast<int>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  t_bindings.push_back(TlsBinding{id_, raw});
  return raw;
}

void Tracer::BeginSpan(std::string_view name, std::string_view category) {
  if (!enabled_) return;
  const double ts = NowMicros();
  ThreadBuffer* buffer = BufferForThisThread();
  buffer->events.push_back(
      Event{'B', ts, std::string(name), std::string(category), {}});
  buffer->committed.store(static_cast<int64_t>(buffer->events.size()),
                          std::memory_order_release);
}

void Tracer::EndSpan(std::string_view args_json) {
  if (!enabled_) return;
  const double ts = NowMicros();
  ThreadBuffer* buffer = BufferForThisThread();
  buffer->events.push_back(Event{'E', ts, {}, {}, std::string(args_json)});
  buffer->committed.store(static_cast<int64_t>(buffer->events.size()),
                          std::memory_order_release);
}

int64_t Tracer::event_count() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const auto& buffer : buffers_) {
    // The atomic count, not events.size(): emitting threads append to their
    // buffers without holding mu_, so reading the vector here would race.
    total += buffer->committed.load(std::memory_order_acquire);
  }
  return total;
}

std::string Tracer::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const Event& e : buffer->events) {
      if (!first) out += ",\n ";
      first = false;
      out += StrFormat("{\"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, "
                       "\"tid\": %d",
                       e.phase, e.ts_us, buffer->tid);
      if (!e.name.empty()) {
        out += StrFormat(", \"name\": \"%s\"",
                         EscapeJsonString(e.name).c_str());
      }
      if (!e.category.empty()) {
        out += StrFormat(", \"cat\": \"%s\"",
                         EscapeJsonString(e.category).c_str());
      }
      if (!e.args.empty()) out += StrFormat(", \"args\": {%s}", e.args.c_str());
      out += "}";
    }
  }
  out += "], \"displayTimeUnit\": \"ms\"}";
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open trace file: " + path);
  out << ToJson() << "\n";
  if (!out) return Status::Internal("failed writing trace file: " + path);
  return Status::OK();
}

void TraceSpan::AddArg(std::string_view key, int64_t value) {
  if (tracer_ == nullptr) return;
  if (!args_.empty()) args_ += ", ";
  args_ += StrFormat("\"%s\": %lld", EscapeJsonString(key).c_str(),
                     static_cast<long long>(value));
}

void TraceSpan::AddArg(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  if (!args_.empty()) args_ += ", ";
  args_ += StrFormat("\"%s\": %.6f", EscapeJsonString(key).c_str(), value);
}

void TraceSpan::AddArg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  if (!args_.empty()) args_ += ", ";
  args_ += StrFormat("\"%s\": \"%s\"", EscapeJsonString(key).c_str(),
                     EscapeJsonString(value).c_str());
}

}  // namespace mwsj
