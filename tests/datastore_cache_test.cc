// The client-side datum cache: hit/miss accounting, zero-copy views,
// LRU eviction, batched multi-retrieve, typed errors, and — the part
// that earns the cache its coherence claim — piggybacked invalidations
// across id reuse under concurrency (run under TSAN in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "adlb/client.h"
#include "adlb/server.h"
#include "blob/blob.h"
#include "common/error.h"
#include "mpi/comm.h"
#include "runtime/runner.h"

namespace ilps::adlb {
namespace {

// Runs a world where every server rank serves and every client rank runs
// `client_main`. `cache_mb` is set explicitly so tests don't depend on
// the ILPS_DATA_CACHE_MB environment default.
void run(int nclients, int nservers, int cache_mb,
         const std::function<void(Client&)>& client_main,
         const std::function<void(Config&)>& tweak = {}) {
  Config cfg;
  cfg.nservers = nservers;
  cfg.data_cache_mb = cache_mb;
  if (tweak) tweak(cfg);
  mpi::World world(nclients + nservers);
  world.run([&](mpi::Comm& comm) {
    if (is_server(comm.rank(), comm.size(), cfg)) {
      Server server(comm, cfg);
      server.serve();
    } else {
      Client client(comm, cfg);
      client_main(client);
    }
  });
}

TEST(DatumCache, RepeatedRetrieveHitsAndSharesStorage) {
  run(1, 1, 64, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kString);
    c.store(id, "hello");
    ser::SharedBytes v1 = c.retrieve_view(id);
    ser::SharedBytes v2 = c.retrieve_view(id);
    EXPECT_EQ(v1.to_string(), "hello");
    EXPECT_EQ(v2.to_string(), "hello");
    // The miss populated the cache from the transport buffer; the hit
    // returns a view of the SAME storage — no copy anywhere.
    EXPECT_EQ(v1.storage.get(), v2.storage.get());
    EXPECT_TRUE(c.cache_enabled());
    EXPECT_EQ(c.cache_stats().misses, 1u);
    EXPECT_EQ(c.cache_stats().hits, 1u);
    EXPECT_GT(c.cache_bytes(), 0u);
    EXPECT_EQ(c.retrieve(id), "hello");  // string path shares the cache
    EXPECT_EQ(c.cache_stats().hits, 2u);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(DatumCache, DisabledCacheZeroActivityIdenticalResults) {
  run(1, 1, /*cache_mb=*/0, [](Client& c) {
    EXPECT_FALSE(c.cache_enabled());
    int64_t id = c.unique();
    c.create(id, DataType::kString);
    c.store(id, "payload");
    EXPECT_EQ(c.retrieve(id), "payload");
    EXPECT_EQ(c.retrieve(id), "payload");
    std::vector<int64_t> ids = {id, id};
    std::vector<std::string> vals = c.multi_retrieve(ids);
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_EQ(vals[0], "payload");
    EXPECT_EQ(vals[1], "payload");
    const DataCacheStats& s = c.cache_stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.invalidations, 0u);
    EXPECT_EQ(c.cache_bytes(), 0u);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

// Fault tolerance is server-side recovery state, not a second client
// data path: the cache, batched multi_retrieve and the write-behind
// pipeline all stay on under ft.
TEST(DatumCache, FtKeepsCacheAndBatchedRetrieve) {
  run(
      1, 1, 64,
      [](Client& c) {
        EXPECT_TRUE(c.cache_enabled());
        int64_t id = c.unique();
        c.create(id, DataType::kString);
        c.store(id, "ft-value");
        EXPECT_EQ(c.retrieve(id), "ft-value");
        std::vector<int64_t> ids = {id, id, id};
        std::vector<std::string> vals = c.multi_retrieve(ids);
        ASSERT_EQ(vals.size(), 3u);
        for (const auto& v : vals) EXPECT_EQ(v, "ft-value");
        // The single retrieve missed; the batch was served from the cache.
        EXPECT_EQ(c.cache_stats().misses, 1u);
        EXPECT_EQ(c.cache_stats().hits, 3u);
        EXPECT_EQ(c.pipeline_stats().ops, 2u);  // the create and the store
        EXPECT_FALSE(c.get(kTypeWork).has_value());
      },
      [](Config& cfg) { cfg.ft = true; });
}

TEST(DatumCache, DataErrorNamesIdAndSymbol) {
  run(1, 1, 64, [](Client& c) {
    int64_t id = c.unique();
    try {
      c.retrieve(id);
      FAIL() << "expected DataError for missing datum";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(id)), std::string::npos)
          << e.what();
    }
    c.set_symbol_hint(
        [](int64_t) { return std::string("variable \"x\" (line 7)"); });
    try {
      std::vector<int64_t> ids = {id};
      c.multi_retrieve(ids);
      FAIL() << "expected DataError for missing datum in batch";
    } catch (const DataError& e) {
      std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(id)), std::string::npos) << what;
      EXPECT_NE(what.find("variable \"x\" (line 7)"), std::string::npos) << what;
    }
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(DatumCache, MultiRetrieveBatchesAcrossServers) {
  run(1, 2, 64, [](Client& c) {
    // Ids spread over both shards; values must come back in input order.
    std::vector<int64_t> ids;
    for (int i = 0; i < 6; ++i) {
      int64_t id = c.unique();
      c.create(id, DataType::kString);
      c.store(id, "v" + std::to_string(i));
      ids.push_back(id);
    }
    std::vector<std::string> vals = c.multi_retrieve(ids);
    ASSERT_EQ(vals.size(), 6u);
    for (int i = 0; i < 6; ++i) EXPECT_EQ(vals[i], "v" + std::to_string(i));
    EXPECT_EQ(c.cache_stats().misses, 6u);
    // Second pass is served entirely from the cache.
    vals = c.multi_retrieve(ids);
    for (int i = 0; i < 6; ++i) EXPECT_EQ(vals[i], "v" + std::to_string(i));
    EXPECT_EQ(c.cache_stats().hits, 6u);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(DatumCache, EnumerateCached) {
  run(1, 1, 64, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kContainer);
    c.insert(id, "a", "1");
    c.insert(id, "b", "2");
    c.write_incr(id, -1);  // closes; containers cache only once closed
    auto first = c.enumerate(id);
    auto second = c.enumerate(id);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first, second);
    EXPECT_EQ(c.cache_stats().misses, 1u);
    EXPECT_EQ(c.cache_stats().hits, 1u);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(DatumCache, LruEvictionUnderByteBudget) {
  run(1, 1, /*cache_mb=*/1, [](Client& c) {
    const std::string big(400 << 10, 'x');  // 3 x 400 KiB > 1 MiB budget
    std::vector<int64_t> ids;
    for (int i = 0; i < 3; ++i) {
      int64_t id = c.unique();
      c.create(id, DataType::kString);
      c.store(id, big);
      EXPECT_EQ(c.retrieve(id).size(), big.size());
      ids.push_back(id);
    }
    EXPECT_GE(c.cache_stats().evictions, 1u);
    EXPECT_LE(c.cache_bytes(), size_t(1) << 20);
    // The oldest entry was evicted; re-reading it is a miss, not a hit.
    uint64_t misses = c.cache_stats().misses;
    EXPECT_EQ(c.retrieve(ids[0]).size(), big.size());
    EXPECT_EQ(c.cache_stats().misses, misses + 1);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(DatumCache, BlobViewIsZeroCopyWithCowDetach) {
  run(1, 1, 64, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kBlob);
    c.store(id, "blob-bytes");
    blob::Blob b = blob::Blob::from_view(c.retrieve_view(id));
    EXPECT_TRUE(b.is_view());
    EXPECT_EQ(b.to_string(), "blob-bytes");
    // The view aliases the cache's storage (same backing allocation as a
    // fresh retrieve_view), so handing a blob to a leaf task copies
    // nothing.
    ser::SharedBytes again = c.retrieve_view(id);
    EXPECT_EQ(b.storage_id(), static_cast<const void*>(again.storage.get()));
    // First mutable access detaches (copy-on-write): the cached bytes
    // stay immutable.
    b.data()[0] = std::byte{'B'};
    EXPECT_FALSE(b.is_view());
    EXPECT_EQ(b.to_string(), "Blob-bytes");
    EXPECT_EQ(c.retrieve(id), "blob-bytes");
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

// The stress test the cache's coherence story hangs on: one manual id is
// created, read by N concurrent readers, deleted by refcount, and
// immediately recreated with a different value — many rounds. A reader
// must never observe a previous incarnation's bytes from its cache: the
// deletion's (id, epoch) invalidation piggybacks on server replies and,
// because the writer only announces round r+1 after the delete, it
// reaches every reader before the new round's task does. Run under TSAN.
TEST(DatumCache, NoStaleReadAcrossIdReuse) {
  const int kReaders = 3;
  const int kRounds = 25;
  const int64_t id = 777;
  std::mutex mu;
  DataCacheStats total;
  std::atomic<int> mismatches{0};
  run(1 + kReaders, 1, 64, [&](Client& c) {
    if (c.rank() == 0) {
      for (int r = 0; r < kRounds; ++r) {
        const std::string value = "round-" + std::to_string(r);
        c.create(id, DataType::kString);  // writer holds the only read ref
        c.store(id, value);
        for (int reader = 1; reader <= kReaders; ++reader) {
          c.put({kTypeWork, 0, reader, kAnyRank, value});
        }
        // Wait until every reader has read (and cached) this incarnation,
        // THEN delete it out from under them: the GC queues an (id,
        // epoch) invalidation for each cache holder, piggybacked on that
        // reader's next reply — which precedes the next round's task.
        for (int done = 0; done < kReaders; ++done) {
          ASSERT_TRUE(c.get(kTypeWork).has_value());
        }
        c.ref_incr(id, -1);
        while (c.exists(id)) {
        }
      }
      EXPECT_FALSE(c.get(kTypeWork).has_value());
      return;
    }
    while (auto unit = c.get(kTypeWork)) {
      // Two reads: the first misses (the previous incarnation was
      // invalidated), the second must hit the cache — and both must be
      // THIS round's value.
      if (c.retrieve(id) != unit->payload) mismatches.fetch_add(1);
      if (c.retrieve(id) != unit->payload) mismatches.fetch_add(1);
      c.put({kTypeWork, 0, 0, kAnyRank, "done"});
    }
    std::lock_guard<std::mutex> lock(mu);
    total += c.cache_stats();
  });
  EXPECT_EQ(mismatches.load(), 0);
  // Every (reader, round) pair produced one miss and one hit, and every
  // non-final incarnation a reader cached was later invalidated.
  EXPECT_EQ(total.misses, static_cast<uint64_t>(kReaders) * kRounds);
  EXPECT_EQ(total.hits, static_cast<uint64_t>(kReaders) * kRounds);
  EXPECT_GE(total.invalidations, static_cast<uint64_t>(kReaders) * (kRounds - 1));
}

// A close notification carries its datum's value into the subscriber's
// cache, read at delivery. Here the subscriber leaves each notification
// queued while the datum is stored, closed, deleted by its last read ref
// and re-created with a new value: the next retrieve must see the new
// incarnation (or fail), never the bytes the close produced. A value
// attached at close time would be cached stale: the deletion's
// invalidation leaves on an earlier reply, before the value is cached.
TEST(DatumCache, CarriedValueNeverStaleAcrossIdReuse) {
  const int kRounds = 50;
  const int64_t id = 888;
  std::atomic<int> stale{0};
  std::atomic<int> carried_hits{0};
  run(2, 1, 64, [&](Client& c) {
    if (c.rank() == 0) {  // the writer
      for (int r = 0; r < kRounds; ++r) {
        c.create(id, DataType::kString);
        c.put({kTypeWork, 0, 1, kAnyRank, "subscribe"});
        ASSERT_TRUE(c.get(kTypeWork).has_value());  // the reader subscribed
        c.store(id, "old-" + std::to_string(r));    // queues the notification
        c.ref_incr(id, -1);                          // deletes the datum
        c.create(id, DataType::kString);
        c.store(id, "new-" + std::to_string(r));
        c.put({kTypeWork, 0, 1, kAnyRank, "new-" + std::to_string(r)});
        ASSERT_TRUE(c.get(kTypeWork).has_value());  // the reader has read
        c.ref_incr(id, -1);  // delete the new incarnation before the next round
        while (c.exists(id)) {
        }
      }
      EXPECT_FALSE(c.get(kTypeWork).has_value());
      return;
    }
    while (auto unit = c.get(kTypeWork)) {  // the reader
      ASSERT_EQ(unit->payload, "subscribe");
      c.subscribe(id, kTypeControl);
      c.sync();  // the subscription is registered before the store
      c.put({kTypeWork, 0, 0, kAnyRank, "subscribed"});
      // Waiting for work, not control: the notification stays queued.
      auto expected = c.get(kTypeWork);
      ASSERT_TRUE(expected.has_value());
      auto notification = c.get(kTypeControl);
      ASSERT_TRUE(notification.has_value());
      EXPECT_EQ(notification->payload, std::to_string(id));
      const uint64_t hits = c.cache_stats().hits;
      try {
        if (c.retrieve(id) != expected->payload) stale.fetch_add(1);
      } catch (const DataError&) {
        // Failing is allowed; serving the deleted bytes is not.
      }
      if (c.cache_stats().hits > hits) carried_hits.fetch_add(1);
      c.put({kTypeWork, 0, 0, kAnyRank, "read"});
    }
  });
  EXPECT_EQ(stale.load(), 0);
  // The reader took the new incarnation's value from the notification.
  EXPECT_EQ(carried_hits.load(), kRounds);
}

// End to end: the runner sums per-rank cache stats and a Turbine program
// that re-reads a datum produces hits (zero when the cache is off, with
// identical output).
TEST(DatumCache, RunnerAggregatesCacheStats) {
  const std::string program =
      "turbine::create 1001 string\n"
      "turbine::store_string 1001 hello\n"
      "set a [turbine::retrieve 1001]\n"
      "set b [turbine::retrieve 1001]\n"
      "puts \"$a $b\"\n";
  runtime::Config on;
  on.data_cache_mb = 64;
  runtime::RunResult r_on = runtime::run_program(on, program);
  EXPECT_TRUE(r_on.contains("hello hello"));
  EXPECT_GE(r_on.cache_stats.hits + r_on.cache_stats.misses, 1u);

  runtime::Config off;
  off.data_cache_mb = 0;
  runtime::RunResult r_off = runtime::run_program(off, program);
  EXPECT_TRUE(r_off.contains("hello hello"));
  EXPECT_EQ(r_off.cache_stats.hits, 0u);
  EXPECT_EQ(r_off.cache_stats.misses, 0u);
  EXPECT_EQ(r_off.output(), r_on.output());
}

}  // namespace
}  // namespace ilps::adlb
