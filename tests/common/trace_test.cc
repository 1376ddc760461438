// Tracer semantics: balanced B/E pairs, well-formed JSON, thread safety
// of concurrent emission, and the disabled/no-tracer fast paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace mwsj {
namespace {

// Minimal structural JSON validator: checks quoting, escapes, and
// bracket/brace balance. Enough to catch malformed emission (unbalanced
// events, broken escaping); full schema checks live in the CI smoke test,
// which runs the output through `python3 -m json.tool`.
bool IsStructurallyValidJson(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Control characters must be escaped.
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TracerTest, SpansProduceBalancedBeginEndEvents) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "outer", "test");
    TraceSpan inner(&tracer, "inner", "test");
  }
  EXPECT_EQ(tracer.event_count(), 4);  // 2 B + 2 E.

  const std::string json = tracer.ToJson();
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""), 2);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"E\""), 2);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
}

TEST(TracerTest, ArgsAppearOnClosingEvent) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "work", "test");
    span.AddArg("records", int64_t{42});
    span.AddArg("seconds", 0.5);
    span.AddArg("path", "co\"unt");
  }
  const std::string json = tracer.ToJson();
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"records\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seconds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\": \"co\\\"unt\""), std::string::npos) << json;
}

TEST(TracerTest, NamesAreJsonEscaped) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "quote\"back\\slash\nnewline", "test");
  }
  const std::string json = tracer.ToJson();
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  {
    TraceSpan span(&tracer, "ignored", "test");
    span.AddArg("x", int64_t{1});
  }
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.event_count(), 0);
  EXPECT_TRUE(IsStructurallyValidJson(tracer.ToJson()));
}

TEST(TracerTest, NullTracerSpanIsANoOp) {
  TraceSpan span(nullptr, "nothing", "test");
  span.AddArg("x", int64_t{1});
  EXPECT_FALSE(span.recording());
}

TEST(TracerTest, ExplicitEndClosesOnce) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "early", "test");
    span.End();
    span.End();  // Idempotent; the destructor must not double-close.
  }
  EXPECT_EQ(tracer.event_count(), 2);  // Exactly one B and one E.
}

TEST(TracerTest, ConcurrentEmissionFromPoolThreads) {
  Tracer tracer;
  ThreadPool pool(8);
  constexpr int kTasks = 64;
  constexpr int kSpansPerTask = 50;
  ParallelFor(&pool, kTasks, [&tracer](size_t task) {
    for (int i = 0; i < kSpansPerTask; ++i) {
      TraceSpan span(&tracer, "task_span", "test");
      span.AddArg("task", static_cast<int64_t>(task));
    }
  });
  // Every span contributes B + E; none may be lost or torn.
  EXPECT_EQ(tracer.event_count(), kTasks * kSpansPerTask * 2);

  const std::string json = tracer.ToJson();
  EXPECT_TRUE(IsStructurallyValidJson(json)) << "concurrent emission broke "
                                                "the JSON structure";
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"B\""), kTasks * kSpansPerTask);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"E\""), kTasks * kSpansPerTask);
}

TEST(TracerTest, EventCountIsSafeDuringConcurrentEmission) {
  // Regression for a lock-discipline bug the -Wthread-safety annotation
  // pass surfaced: event_count() held the registry mutex but read each
  // thread buffer's event vector, which emitting threads append to without
  // that mutex — a data race under concurrent polling. It now sums the
  // atomically published per-buffer counts, so polling mid-emission is
  // legal (this test runs under the TSan CI jobs, which pin the fix).
  Tracer tracer;
  ThreadPool pool(4);
  constexpr int kTasks = 16;
  constexpr int kSpansPerTask = 200;
  std::atomic<bool> done{false};
  std::atomic<int64_t> max_polled{0};
  std::thread poller([&tracer, &done, &max_polled] {
    while (!done.load(std::memory_order_acquire)) {
      const int64_t count = tracer.event_count();
      ASSERT_GE(count, max_polled.load(std::memory_order_relaxed))
          << "event_count went backwards under concurrent emission";
      max_polled.store(count, std::memory_order_relaxed);
    }
  });
  ParallelFor(&pool, kTasks, [&tracer](size_t) {
    for (int i = 0; i < kSpansPerTask; ++i) {
      TraceSpan span(&tracer, "polled_span", "test");
    }
  });
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_EQ(tracer.event_count(), kTasks * kSpansPerTask * 2);
}

TEST(TracerTest, SequentialTracersReuseThreadsSafely) {
  // Pool threads outlive tracers; a second tracer must not inherit the
  // first one's thread-local buffer bindings.
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    Tracer tracer;
    ParallelFor(&pool, 16, [&tracer](size_t) {
      TraceSpan span(&tracer, "round_span", "test");
    });
    EXPECT_EQ(tracer.event_count(), 32);
  }
}

TEST(TracerTest, WriteJsonRoundTrips) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "persisted", "test");
  }
  const std::string path = testing::TempDir() + "/trace_test_out.json";
  ASSERT_TRUE(tracer.WriteJson(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, tracer.ToJson() + "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mwsj
