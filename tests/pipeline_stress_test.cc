// Stress tests for the write-behind datum pipeline under real concurrency
// (run under TSAN in CI, like datastore_cache_test).
//
// Two properties the pipeline must not weaken:
//  1. Cross-client visibility: a store a client pipelined is visible to any
//     other client whose read is causally after it (the writer ships every
//     buffered batch before the task announcing the data leaves, and the
//     transport processes causally-ordered posts in order).
//  2. Coherence ordering: cache-epoch invalidations piggybacked on windowed
//     kAckBatch replies are applied before any later reply from the same
//     server — a reader with unacked batches in flight must never serve a
//     deleted incarnation's bytes from its cache once it learns of the new
//     incarnation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "adlb/client.h"
#include "adlb/server.h"
#include "common/error.h"
#include "mpi/comm.h"

namespace ilps::adlb {
namespace {

void run(int nclients, int nservers, int cache_mb,
         const std::function<void(Client&)>& client_main) {
  Config cfg;
  cfg.nservers = nservers;
  cfg.data_cache_mb = cache_mb;
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

// Producer/consumer pairs over 4 shards: each producer pipelines a burst of
// create+store ops whose ids spread across every server, then announces the
// burst to its consumer with one targeted task. The consumer must see every
// value. This is the read-after-write boundary the pipeline flushes at:
// nothing the consumer does can outrun a batch the producer shipped first.
TEST(PipelineStress, FlushedStoresVisibleToOtherClients) {
  const int kPairs = 2;
  const int kRounds = 20;
  const int kBurst = 24;  // > kDataBatchOps: every round ships full frames
  const int kServers = 4;
  std::atomic<int> mismatches{0};
  std::mutex mu;
  DataPipelineStats total;
  run(2 * kPairs, kServers, /*cache_mb=*/0, [&](Client& c) {
    const int pair = c.rank() / 2;
    const bool producer = (c.rank() % 2) == 0;
    // Disjoint id ranges per (pair, round), striding 1 so consecutive ids
    // land on consecutive shards.
    auto base_id = [&](int round) {
      return int64_t(1000000) + pair * 1000000 + round * 1000;
    };
    if (producer) {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kBurst; ++i) {
          int64_t id = base_id(r) + i;
          c.create(id, DataType::kString);
          c.store(id, "v" + std::to_string(r) + ":" + std::to_string(i));
        }
        // The put is a sync boundary: every buffered batch ships first.
        c.put({kTypeWork, 0, c.rank() + 1, kAnyRank, std::to_string(r)});
        ASSERT_TRUE(c.get(kTypeWork).has_value());  // consumer's ack task
      }
      EXPECT_FALSE(c.get(kTypeWork).has_value());
      std::lock_guard<std::mutex> lock(mu);
      total += c.pipeline_stats();
    } else {
      while (auto unit = c.get(kTypeWork)) {
        int r = std::stoi(unit->payload);
        for (int i = 0; i < kBurst; ++i) {
          int64_t id = base_id(r) + i;
          std::string want = "v" + std::to_string(r) + ":" + std::to_string(i);
          if (c.retrieve(id) != want) mismatches.fetch_add(1);
        }
        c.put({kTypeWork, 0, c.rank() - 1, kAnyRank, "ok"});
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  // The producers really pipelined: each buffered op is counted, and the
  // burst size forces multiple shipped frames per round.
  EXPECT_EQ(total.ops, uint64_t(kPairs) * kRounds * kBurst * 2);
  EXPECT_GE(total.flushes, uint64_t(kPairs) * kRounds);
  EXPECT_LT(total.flushes, total.ops);  // coalescing happened
}

// Cache-epoch invalidations must be ordered with respect to windowed acks.
// Two-phase rounds make the race deterministic:
//   phase 1: the writer (re)creates one hot id with this round's value and
//     announces it; every reader retrieves twice (miss + hit) and caches it.
//   phase 2: the writer refcount-deletes the id — queueing an (id, epoch)
//     invalidation for every cache holder at the owner server — confirms
//     the deletion, then announces "gc". Each reader now pipelines a FULL
//     kDataBatch of scratch ops to the hot id's own shard (16 sub-ops, so
//     the frame ships on its own and its kAckBatch — which carries the
//     invalidation — is in flight, unacked) and only then consults the hot
//     id again. The consult must drain the outstanding ack first and
//     observe the deletion (DataError); serving the dead incarnation's
//     bytes from the cache is the bug this test exists to catch.
TEST(PipelineStress, InvalidationsOrderedAcrossWindowedAcks) {
  const int kReaders = 3;
  const int kRounds = 20;
  const int kServers = 4;
  const int64_t id = 777;  // owner shard: 777 % 4 == 1
  std::atomic<int> stale_reads{0};
  std::mutex mu;
  DataCacheStats cache_total;
  DataPipelineStats pipe_total;
  run(1 + kReaders, kServers, /*cache_mb=*/64, [&](Client& c) {
    if (c.rank() == 0) {
      for (int r = 0; r < kRounds; ++r) {
        const std::string value = "round-" + std::to_string(r);
        c.create(id, DataType::kString);  // writer holds the only read ref
        c.store(id, value);
        for (int reader = 1; reader <= kReaders; ++reader) {
          c.put({kTypeWork, 0, reader, kAnyRank, value});
        }
        for (int done = 0; done < kReaders; ++done) {
          ASSERT_TRUE(c.get(kTypeWork).has_value());
        }
        c.ref_incr(id, -1);  // GC: queues an invalidation per cache holder
        while (c.exists(id)) {
        }
        // Deletion is processed at the owner; now tell the readers.
        for (int reader = 1; reader <= kReaders; ++reader) {
          c.put({kTypeWork, 0, reader, kAnyRank, "gc"});
        }
        for (int done = 0; done < kReaders; ++done) {
          ASSERT_TRUE(c.get(kTypeWork).has_value());
        }
      }
      EXPECT_FALSE(c.get(kTypeWork).has_value());
      return;
    }
    // Scratch ids on the hot id's shard (== 1 mod kServers), disjoint per
    // reader; 8 create+store pairs == 16 sub-ops == one full kDataBatch.
    int64_t scratch = 2000001 + int64_t(c.rank()) * 400000;
    std::string current;
    while (auto unit = c.get(kTypeWork)) {
      if (unit->payload != "gc") {
        current = unit->payload;
        if (c.retrieve(id) != current) stale_reads.fetch_add(1);  // miss
        if (c.retrieve(id) != current) stale_reads.fetch_add(1);  // hit
      } else {
        for (int i = 0; i < 8; ++i) {
          c.create(scratch, DataType::kString);
          c.store(scratch, "x");
          scratch += kServers;
        }
        // The batch shipped by itself; its unacked reply carries the hot
        // id's invalidation. A correct consult drains it and sees the
        // deletion; returning the cached (dead) bytes is staleness.
        try {
          if (c.retrieve(id) == current) stale_reads.fetch_add(1);
        } catch (const DataError&) {
          // expected: invalidation applied, then the owner reports the
          // datum gone
        }
      }
      c.put({kTypeWork, 0, 0, kAnyRank, "done"});
    }
    std::lock_guard<std::mutex> lock(mu);
    cache_total += c.cache_stats();
    pipe_total += c.pipeline_stats();
  });
  EXPECT_EQ(stale_reads.load(), 0);
  // Deterministic per (reader, round): phase 1 is miss+hit, phase 2 is one
  // applied invalidation followed by a miss that errors server-side.
  EXPECT_EQ(cache_total.misses, uint64_t(kReaders) * kRounds * 2);
  EXPECT_EQ(cache_total.hits, uint64_t(kReaders) * kRounds);
  EXPECT_EQ(cache_total.invalidations, uint64_t(kReaders) * kRounds);
  // The scratch traffic really took the pipelined path, one full frame per
  // (reader, round).
  EXPECT_EQ(pipe_total.ops, uint64_t(kReaders) * kRounds * 16);
  EXPECT_GE(pipe_total.flushes, uint64_t(kReaders) * kRounds);
}

}  // namespace
}  // namespace ilps::adlb
