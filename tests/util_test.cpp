// Tests for CSV, ASCII tables, flags, thread pool, and parallel_for.
#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "util/ascii_table.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_pool.hpp"

namespace vmcons {
namespace {

TEST(Csv, FormatsAndQuotes) {
  EXPECT_EQ(csv_format_cell(CsvCell{std::string("plain")}), "plain");
  EXPECT_EQ(csv_format_cell(CsvCell{std::string("a,b")}), "\"a,b\"");
  EXPECT_EQ(csv_format_cell(CsvCell{std::string("say \"hi\"")}),
            "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_format_cell(CsvCell{42ll}), "42");
  EXPECT_EQ(csv_format_cell(CsvCell{2.5}), "2.5");
}

TEST(Csv, WriterRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"name", "value"});
  writer.row({std::string("alpha, beta"), 1.25});
  writer.row({std::string("gamma"), 7ll});
  EXPECT_EQ(writer.rows_written(), 2u);

  const CsvDocument document = csv_parse(out.str());
  ASSERT_EQ(document.header.size(), 2u);
  ASSERT_EQ(document.rows.size(), 2u);
  EXPECT_EQ(document.rows[0][document.column("name")], "alpha, beta");
  EXPECT_EQ(document.rows[0][document.column("value")], "1.25");
  EXPECT_EQ(document.rows[1][0], "gamma");
}

TEST(Csv, WriterEnforcesProtocol) {
  std::ostringstream out;
  CsvWriter writer(out);
  EXPECT_THROW(writer.row({1.0}), InvalidArgument);  // header first
  writer.header({"a", "b"});
  EXPECT_THROW(writer.row({1.0}), InvalidArgument);  // width mismatch
  EXPECT_THROW(writer.header({"again"}), InvalidArgument);
}

TEST(Csv, ParseHandlesQuotedNewlineFreeFields) {
  const auto fields = csv_parse_line("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(Csv, MissingColumnThrows) {
  const CsvDocument document = csv_parse("a,b\n1,2\n");
  EXPECT_THROW(document.column("missing"), InvalidArgument);
}

TEST(AsciiTable, RendersAlignedBox) {
  AsciiTable table;
  table.set_header({"name", "count"});
  table.add_row({"web", "100"});
  table.add_row({"db", "7"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name | count |"), std::string::npos);
  // Numeric cells right-align.
  EXPECT_NE(text.find("|   100 |"), std::string::npos);
  EXPECT_NE(text.find("|     7 |"), std::string::npos);
}

TEST(AsciiTable, NumericRowHelper) {
  AsciiTable table;
  table.set_header({"row", "a", "b"});
  table.add_numeric_row("x", {1.23456, 2.0}, 2);
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.to_string().find("1.23"), std::string::npos);
}

TEST(AsciiTable, EnforcesWidths) {
  AsciiTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
  EXPECT_THROW(table.add_numeric_row("x", {1.0, 2.0}), InvalidArgument);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3",  "--beta", "4.5", "--gamma",
                        "pos1", "--flag"};
  Flags flags(7, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 4.5);
  EXPECT_EQ(flags.get_string("gamma", ""), "pos1");
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_EQ(flags.get_int("missing", 9), 9);
}

TEST(Flags, BooleanSpellings) {
  const char* argv[] = {"prog", "--on=yes", "--off=0", "--bad=maybe"};
  Flags flags(4, argv);
  EXPECT_TRUE(flags.get_bool("on", false));
  EXPECT_FALSE(flags.get_bool("off", true));
  EXPECT_THROW(flags.get_bool("bad", false), InvalidArgument);
}

TEST(Flags, TypeErrorsThrow) {
  const char* argv[] = {"prog", "--n=abc"};
  Flags flags(2, argv);
  EXPECT_THROW(flags.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(flags.get_double("n", 0.0), InvalidArgument);
}

TEST(Flags, TracksUnknownFlags) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  Flags flags(3, argv);
  flags.get_int("known", 0);
  const auto unknown = flags.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(1000, [&](std::size_t i) { ++visits[i]; }, pool);
  for (const auto& visit : visits) {
    EXPECT_EQ(visit.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingle) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; }, pool);
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; }, pool);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 50) {
                       throw InvalidArgument("bad index");
                     }
                   },
                   pool),
               InvalidArgument);
}

TEST(ParallelFor, ExplicitGrainVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  for (const std::size_t grain : {1u, 7u, 64u, 1000u, 5000u}) {
    std::vector<std::atomic<int>> visits(1000);
    parallel_for(
        1000, [&](std::size_t i) { ++visits[i]; }, pool, grain);
    for (const auto& visit : visits) {
      ASSERT_EQ(visit.load(), 1) << "grain " << grain;
    }
  }
}

TEST(ParallelFor, GrainLargerThanCountRunsSerially) {
  ThreadPool pool(4);
  // grain >= count must not dispatch to the pool at all: every index runs
  // on the calling thread.
  std::vector<int> visits(64, 0);  // unsynchronized on purpose
  bool on_worker = false;
  parallel_for(
      64,
      [&](std::size_t i) {
        ++visits[i];
        on_worker = on_worker || ThreadPool::on_worker_thread();
      },
      pool, 64);
  EXPECT_FALSE(on_worker);
  for (const int visit : visits) {
    EXPECT_EQ(visit, 1);
  }
}

TEST(ParallelMap, GrainPreservesOrder) {
  ThreadPool pool(4);
  const auto squares = parallel_map(
      100, [](std::size_t i) { return i * i; }, pool, 9);
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPool, DetectsWorkerThreads) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(1);
  auto probe = pool.submit([] { return ThreadPool::on_worker_thread(); });
  EXPECT_TRUE(probe.get());
  EXPECT_FALSE(ThreadPool::on_worker_thread());  // flag is per-thread
}

TEST(ParallelFor, NestedTwoDeepOnSmallPoolCompletes) {
  // Regression: a parallel_for issued from a pool worker used to block on
  // future.get() for chunks queued behind it — with every worker of a
  // 2-thread pool parked that way, the pool deadlocked. Nested loops now
  // run inline on the worker.
  ThreadPool pool(2);
  std::atomic<int> visits{0};
  parallel_for(
      8,
      [&](std::size_t) {
        parallel_for(
            8,
            [&](std::size_t) {
              parallel_for(
                  4, [&](std::size_t) { ++visits; }, pool);
            },
            pool);
      },
      pool);
  EXPECT_EQ(visits.load(), 8 * 8 * 4);
}

TEST(ParallelFor, NestedStillRethrowsExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(
                   4,
                   [&](std::size_t) {
                     parallel_for(
                         4,
                         [](std::size_t i) {
                           if (i == 2) {
                             throw InvalidArgument("inner failure");
                           }
                         },
                         pool);
                   },
                   pool),
               InvalidArgument);
}

TEST(ParallelFor, CallerFinishesChunksWhileWorkersAreBusy) {
  // Both workers are parked on a latch, so only the calling thread can run
  // chunks: it must visit every index while they stay parked. parallel_for
  // returns once the latch opens and its helpers, finding no chunk left,
  // are joined.
  ThreadPool pool(2);
  std::latch parked(2);
  std::latch release(1);
  const auto park = [&] {
    parked.count_down();
    release.wait();
  };
  auto first = pool.submit(park);
  auto second = pool.submit(park);
  parked.wait();

  constexpr std::size_t kCount = 64;
  std::atomic<std::size_t> visited{0};
  std::thread caller([&] {
    parallel_for(
        kCount, [&](std::size_t) { visited.fetch_add(1); }, pool);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (visited.load() < kCount &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(visited.load(), kCount) << "indices visited with workers parked";
  release.count_down();
  caller.join();
  first.get();
  second.get();
  EXPECT_EQ(visited.load(), kCount);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ParallelFor, NestedLoopOnTheCallerRunsInline) {
  // An inner loop called from a chunk runs every index on that chunk's
  // thread, the caller's included. The outer loop has two chunks, so one
  // worker of the 2-thread pool stays idle: an inner loop that enqueued
  // helpers from the caller would hand that worker some of its slow
  // indices.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::size_t> outer_on_caller{0};
  std::atomic<std::size_t> inner_on_caller{0};
  std::atomic<std::size_t> inner_elsewhere{0};
  // The caller claims a chunk as soon as its helper is enqueued; retry a
  // few times in case the woken worker took both chunks first.
  for (int attempt = 0; attempt < 20 && outer_on_caller.load() == 0;
       ++attempt) {
    parallel_for(
        2,
        [&](std::size_t) {
          const std::thread::id outer = std::this_thread::get_id();
          if (outer == caller) {
            outer_on_caller.fetch_add(1);
          }
          parallel_for(
              16,
              [&](std::size_t) {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                if (std::this_thread::get_id() != outer) {
                  inner_elsewhere.fetch_add(1);
                } else if (outer == caller) {
                  inner_on_caller.fetch_add(1);
                }
              },
              pool);
        },
        pool, 1);
  }
  ASSERT_GT(outer_on_caller.load(), 0u) << "the caller ran no chunk";
  EXPECT_EQ(inner_on_caller.load(), 16 * outer_on_caller.load());
  EXPECT_EQ(inner_elsewhere.load(), 0u);
}

struct LowChunkError {};
struct HighChunkError {};

TEST(ParallelFor, LowestChunkErrorWins) {
  // Chunk 2 delays its throw so chunk 9 usually fails first in time; the
  // error raised must still be chunk 2's, as an in-order join would raise.
  for (const std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    for (int repeat = 0; repeat < 50; ++repeat) {
      try {
        parallel_for(
            16,
            [](std::size_t i) {
              if (i == 2) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                throw LowChunkError{};
              }
              if (i == 9) {
                throw HighChunkError{};
              }
            },
            pool, 1);
        ADD_FAILURE() << "no error at " << workers << " workers";
      } catch (const LowChunkError&) {
      } catch (const HighChunkError&) {
        ADD_FAILURE() << "chunk 9's error won at " << workers
                      << " workers, repeat " << repeat;
      }
    }
  }
}

TEST(ParallelMap, PreservesOrder) {
  ThreadPool pool(4);
  const auto squares =
      parallel_map(50, [](std::size_t i) { return i * i; }, pool);
  ASSERT_EQ(squares.size(), 50u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

namespace {
// Deliberately awkward result type: no default constructor, move-only.
struct TaggedResult {
  explicit TaggedResult(std::size_t i) : tag(i) {}
  TaggedResult(TaggedResult&&) = default;
  TaggedResult& operator=(TaggedResult&&) = default;
  TaggedResult(const TaggedResult&) = delete;
  TaggedResult& operator=(const TaggedResult&) = delete;
  std::size_t tag;
};
}  // namespace

TEST(ParallelMap, SupportsNonDefaultConstructibleResults) {
  static_assert(!std::is_default_constructible_v<TaggedResult>);
  ThreadPool pool(4);
  const auto results = parallel_map(
      64, [](std::size_t i) { return TaggedResult(i); }, pool);
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].tag, i);
  }
}

}  // namespace
}  // namespace vmcons
