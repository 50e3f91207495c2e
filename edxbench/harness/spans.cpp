#include "spans.h"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

#include "bench.h"

namespace edxbench {
namespace {

struct Record {
  const char* name{nullptr};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t parent{-1};  ///< index in the same thread's buffer
};

struct ThreadBuffer {
  std::size_t thread{0};
  std::vector<Record> records;
  std::vector<std::int64_t> open;  ///< indexes of the spans still open
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by mutex

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->thread = g_registry.size() - 1;
    buffer->records.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

void set_tracing(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!tracing()) return;
  ThreadBuffer& buffer = local_buffer();
  index_ = static_cast<std::int64_t>(buffer.records.size());
  buffer.records.push_back(
      {name, now_ns(), 0, buffer.open.empty() ? -1 : buffer.open.back()});
  buffer.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.records[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buffer.open.pop_back();
}

std::vector<double> span_us(const std::string& name) {
  std::lock_guard lock(g_registry_mutex);
  std::vector<double> out;
  for (const auto& buffer : g_registry) {
    for (const Record& record : buffer->records) {
      if (name == record.name) {
        out.push_back(static_cast<double>(record.end_ns - record.start_ns) /
                      1e3);
      }
    }
  }
  return out;
}

double span_total_ms(const std::string& name) {
  double total_us = 0.0;
  for (double us : span_us(name)) total_us += us;
  return total_us / 1e3;
}

std::map<std::string, double> layer_self_ms() {
  std::lock_guard lock(g_registry_mutex);
  std::map<std::string, double> self_ms;
  for (const auto& buffer : g_registry) {
    std::vector<std::int64_t> child_ns(buffer->records.size(), 0);
    for (const Record& record : buffer->records) {
      if (record.parent >= 0) {
        child_ns[static_cast<std::size_t>(record.parent)] +=
            record.end_ns - record.start_ns;
      }
    }
    for (std::size_t i = 0; i < buffer->records.size(); ++i) {
      const Record& record = buffer->records[i];
      const std::string name(record.name);
      const std::string layer = name.substr(0, name.find('.'));
      self_ms[layer] +=
          static_cast<double>(record.end_ns - record.start_ns - child_ns[i]) /
          1e6;
    }
  }
  return self_ms;
}

std::size_t span_count() {
  std::lock_guard lock(g_registry_mutex);
  std::size_t count = 0;
  for (const auto& buffer : g_registry) count += buffer->records.size();
  return count;
}

void write_spans(const std::string& path) {
  std::lock_guard lock(g_registry_mutex);
  std::ofstream out(path);
  for (const auto& buffer : g_registry) {
    const std::string prefix = std::to_string(buffer->thread) + ":";
    for (std::size_t i = 0; i < buffer->records.size(); ++i) {
      const Record& record = buffer->records[i];
      out << "{\"id\":\"" << prefix << i << "\",\"parent\":";
      if (record.parent < 0) {
        out << "null";
      } else {
        out << '"' << prefix << record.parent << '"';
      }
      out << ",\"thread\":" << buffer->thread << ",\"name\":\"" << record.name
          << "\",\"start_ns\":" << record.start_ns
          << ",\"end_ns\":" << record.end_ns << "}\n";
    }
  }
}

}  // namespace edxbench
