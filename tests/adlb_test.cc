// ADLB: task queueing and matching, targeting, priorities, cross-server
// rebalancing, distributed termination, and the data store.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <type_traits>
#include <vector>

#include "adlb/client.h"
#include "adlb/server.h"
#include "common/error.h"
#include "common/rng.h"
#include "mpi/comm.h"

namespace ilps::adlb {
namespace {

// Runs a world where every server rank serves and every client rank runs
// `client_main`. Returns after global termination.
void run_cfg(Config cfg, int nclients, const std::function<void(Client&)>& client_main) {
  mpi::World world(nclients + cfg.nservers);
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

void run(int nclients, int nservers, const std::function<void(Client&)>& client_main,
         int ntypes = 2) {
  Config cfg;
  cfg.nservers = nservers;
  cfg.ntypes = ntypes;
  run_cfg(cfg, nclients, client_main);
}

// A client that only drains work of one type until shutdown, recording
// payloads.
void drain(Client& client, int type, std::vector<std::string>& sink, std::mutex& mu) {
  while (auto unit = client.get(type)) {
    std::lock_guard<std::mutex> lock(mu);
    sink.push_back(unit->payload);
  }
}

TEST(Layout, RoleMapping) {
  Config cfg;
  cfg.nservers = 2;
  // size 6: ranks 0..3 clients, 4..5 servers.
  EXPECT_FALSE(is_server(3, 6, cfg));
  EXPECT_TRUE(is_server(4, 6, cfg));
  EXPECT_TRUE(is_server(5, 6, cfg));
  EXPECT_EQ(num_clients(6, cfg), 4);
  EXPECT_EQ(server_rank(0, 6, cfg), 4);
  EXPECT_EQ(home_server(0, 6, cfg), 4);
  EXPECT_EQ(home_server(1, 6, cfg), 5);
  EXPECT_EQ(home_server(2, 6, cfg), 4);
  // Owner server is stable and in range.
  for (int64_t id : {0LL, 1LL, 12345LL, -7LL}) {
    int s = owner_server(id, 6, cfg);
    EXPECT_TRUE(s == 4 || s == 5);
    EXPECT_EQ(s, owner_server(id, 6, cfg));
  }
}

TEST(Adlb, EmptyRunTerminates) {
  // Clients immediately ask for work; servers detect quiescence.
  run(3, 1, [](Client& c) { EXPECT_FALSE(c.get(kTypeWork).has_value()); });
}

TEST(Adlb, EmptyRunTerminatesManyServers) {
  run(5, 3, [](Client& c) { EXPECT_FALSE(c.get(kTypeWork).has_value()); });
}

TEST(Adlb, PutThenGetSelf) {
  run(1, 1, [](Client& c) {
    c.put({kTypeWork, 0, kAnyRank, kAnyRank, "task-a"});
    auto unit = c.get(kTypeWork);
    ASSERT_TRUE(unit.has_value());
    EXPECT_EQ(unit->payload, "task-a");
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(Adlb, WorkDistributedToOtherClients) {
  std::mutex mu;
  std::vector<std::string> got;
  run(4, 1, [&](Client& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 12; ++i) {
        c.put({kTypeWork, 0, kAnyRank, kAnyRank, "t" + std::to_string(i)});
      }
    }
    drain(c, kTypeWork, got, mu);
  });
  EXPECT_EQ(got.size(), 12u);
  std::set<std::string> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), 12u);  // every task delivered exactly once
}

TEST(Adlb, CrossServerRebalancing) {
  // Producer is on server A; the only consumers are homed on server B, so
  // every unit must travel through the hungry/rebalance protocol. (Even
  // ranks park instead of consuming: letting them race for the work made
  // the cross-server delivery count timing-dependent.)
  std::mutex mu;
  std::vector<std::string> got;
  std::atomic<int> consumer_hits{0};
  run(4, 2, [&](Client& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        c.put({kTypeWork, 0, kAnyRank, kAnyRank, "x" + std::to_string(i)});
      }
      // Rank 0 does not consume; it parks and waits for shutdown.
      EXPECT_FALSE(c.get(kTypeControl).has_value());
      return;
    }
    if (c.rank() % 2 == 0) {
      // Even ranks share server A with the producer; park them too.
      EXPECT_FALSE(c.get(kTypeControl).has_value());
      return;
    }
    while (auto unit = c.get(kTypeWork)) {
      std::lock_guard<std::mutex> lock(mu);
      got.push_back(unit->payload);
      consumer_hits.fetch_add(1);  // clients of server B
    }
  });
  EXPECT_EQ(got.size(), 20u);
  // Odd ranks are homed on the second server; all work originated on the
  // first, so every delivery crossed servers.
  EXPECT_EQ(consumer_hits.load(), 20);
}

TEST(Adlb, TargetedWork) {
  std::mutex mu;
  std::vector<std::pair<int, std::string>> got;
  run(3, 2, [&](Client& c) {
    if (c.rank() == 0) {
      c.put({kTypeWork, 0, 2, kAnyRank, "for-two"});
      c.put({kTypeWork, 0, 1, kAnyRank, "for-one"});
      c.put({kTypeWork, 0, 0, kAnyRank, "for-zero"});
    }
    while (auto unit = c.get(kTypeWork)) {
      std::lock_guard<std::mutex> lock(mu);
      got.emplace_back(c.rank(), unit->payload);
    }
  });
  ASSERT_EQ(got.size(), 3u);
  for (const auto& [rank, payload] : got) {
    if (payload == "for-two") {
      EXPECT_EQ(rank, 2);
    }
    if (payload == "for-one") {
      EXPECT_EQ(rank, 1);
    }
    if (payload == "for-zero") {
      EXPECT_EQ(rank, 0);
    }
  }
}

TEST(Adlb, PriorityOrdering) {
  // A single consumer: higher-priority work must be delivered first once
  // queued. Queue everything before the consumer starts taking.
  std::vector<std::string> order;
  run(1, 1, [&](Client& c) {
    c.put({kTypeWork, 1, kAnyRank, kAnyRank, "low"});
    c.put({kTypeWork, 10, kAnyRank, kAnyRank, "high"});
    c.put({kTypeWork, 5, kAnyRank, kAnyRank, "mid"});
    c.put({kTypeWork, 10, kAnyRank, kAnyRank, "high2"});
    while (auto unit = c.get(kTypeWork)) order.push_back(unit->payload);
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "high2");  // FIFO among equal priorities
  EXPECT_EQ(order[2], "mid");
  EXPECT_EQ(order[3], "low");
}

TEST(Adlb, TasksSpawningTasks) {
  // Each received task spawns two children until a depth limit; checks
  // dynamic workloads and that termination waits for the full tree.
  std::atomic<int> executed{0};
  run(4, 2, [&](Client& c) {
    if (c.rank() == 0) c.put({kTypeWork, 0, kAnyRank, kAnyRank, "0"});
    while (auto unit = c.get(kTypeWork)) {
      executed.fetch_add(1);
      int depth = std::stoi(unit->payload);
      if (depth < 5) {
        c.put({kTypeWork, 0, kAnyRank, kAnyRank, std::to_string(depth + 1)});
        c.put({kTypeWork, 0, kAnyRank, kAnyRank, std::to_string(depth + 1)});
      }
    }
  });
  EXPECT_EQ(executed.load(), 63);  // complete binary tree of depth 5
}

TEST(Adlb, InvalidPutsRejected) {
  run(1, 1, [](Client& c) {
    EXPECT_THROW(c.put({99, 0, kAnyRank, kAnyRank, "bad type"}), DataError);
    EXPECT_THROW(c.put({kTypeWork, 0, 42, kAnyRank, "bad target"}), DataError);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

// ---- data store ----

TEST(AdlbData, CreateStoreRetrieve) {
  run(2, 1, [](Client& c) {
    if (c.rank() == 0) {
      int64_t id = c.unique();
      c.create(id, DataType::kString);
      c.store(id, "payload");
      EXPECT_EQ(c.retrieve(id), "payload");
      EXPECT_TRUE(c.exists(id));
      EXPECT_EQ(c.type_of(id), DataType::kString);
      EXPECT_FALSE(c.exists(id + 999));
    }
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(AdlbData, UniqueIdsDisjointAcrossRanks) {
  std::mutex mu;
  std::set<int64_t> all;
  run(4, 2, [&](Client& c) {
    std::vector<int64_t> mine;
    for (int i = 0; i < 100; ++i) mine.push_back(c.unique());
    {
      std::lock_guard<std::mutex> lock(mu);
      for (int64_t id : mine) {
        EXPECT_TRUE(all.insert(id).second) << "duplicate id " << id;
      }
    }
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
  EXPECT_EQ(all.size(), 400u);
}

TEST(AdlbData, ErrorPaths) {
  run(1, 1, [](Client& c) {
    int64_t id = c.unique();
    EXPECT_THROW(c.retrieve(id), DataError);        // missing
    c.create(id, DataType::kInteger);
    EXPECT_THROW({ c.create(id, DataType::kInteger); c.sync(); }, DataError);  // double create
    EXPECT_THROW(c.retrieve(id), DataError);        // not closed
    c.store(id, "1");
    EXPECT_THROW({ c.store(id, "2"); c.sync(); }, DataError);  // double assignment
    EXPECT_THROW({ c.close(id); c.sync(); }, DataError);  // already closed
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(AdlbData, VoidFutureCloseAndSubscribe) {
  run(1, 1, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kVoid);
    c.subscribe(id, kTypeControl);
    c.close(id);
    // Notification arrives as a targeted control task with the id.
    auto unit = c.get(kTypeControl);
    ASSERT_TRUE(unit.has_value());
    EXPECT_EQ(unit->payload, std::to_string(id));
    // Subscribing after close queues the notification at once.
    c.subscribe(id, kTypeControl);
    auto again = c.get(kTypeControl);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->payload, std::to_string(id));
    EXPECT_FALSE(c.get(kTypeControl).has_value());
  });
}

TEST(AdlbData, SubscribeAcrossRanks) {
  run(2, 2, [](Client& c) {
    if (c.rank() == 0) {
      // Deterministic id so both ranks agree without communication.
      int64_t id = 4242;
      c.create(id, DataType::kInteger);
      c.put({kTypeWork, 0, 1, kAnyRank, std::to_string(id)});  // tell rank 1
      // Rank 1 may store (and close) before or after we subscribe; both
      // orders are legal, and either way one notification arrives.
      c.subscribe(id, kTypeControl);
      auto notif = c.get(kTypeControl);
      ASSERT_TRUE(notif.has_value());
      EXPECT_EQ(notif->payload, std::to_string(id));
      EXPECT_EQ(c.retrieve(id), "77");
      EXPECT_FALSE(c.get(kTypeControl).has_value());
    } else {
      auto unit = c.get(kTypeWork);
      ASSERT_TRUE(unit.has_value());
      int64_t id = std::stoll(unit->payload);
      c.store(id, "77");
      EXPECT_FALSE(c.get(kTypeWork).has_value());
    }
  });
}

TEST(AdlbData, ReadRefcountDeletes) {
  run(1, 1, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kString);
    c.store(id, "v");
    c.ref_incr(id, 2);  // refs: 3
    c.ref_incr(id, -3);
    EXPECT_FALSE(c.exists(id));
    EXPECT_THROW({ c.ref_incr(id, -1); c.sync(); }, DataError);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

TEST(AdlbData, WriteRefcountClosesContainer) {
  run(1, 1, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kContainer);
    c.write_incr(id, 1);  // writers: 2
    c.insert(id, "a", "1");
    c.insert(id, "b", "2");
    c.subscribe(id, kTypeControl);
    c.write_incr(id, -1);
    c.insert(id, "c", "3");  // still open, one writer left
    c.write_incr(id, -1);    // closes
    auto notif = c.get(kTypeControl);
    ASSERT_TRUE(notif.has_value());
    auto entries = c.enumerate(id);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, "a");
    EXPECT_EQ(entries[2].second, "3");
    EXPECT_THROW({ c.insert(id, "d", "4"); c.sync(); }, DataError);
    EXPECT_FALSE(c.get(kTypeControl).has_value());
  });
}

TEST(AdlbData, ContainerLookup) {
  run(1, 1, [](Client& c) {
    int64_t id = c.unique();
    c.create(id, DataType::kContainer);
    c.insert(id, "k", "v");
    EXPECT_EQ(c.lookup(id, "k").value(), "v");
    EXPECT_FALSE(c.lookup(id, "nope").has_value());
    EXPECT_THROW({ c.insert(id, "k", "dup"); c.sync(); }, DataError);
    int64_t scalar = c.unique();
    c.create(scalar, DataType::kInteger);
    EXPECT_THROW({ c.insert(scalar, "k", "v"); c.sync(); }, DataError);
    EXPECT_THROW(c.lookup(scalar, "k"), DataError);
    EXPECT_THROW(c.enumerate(scalar), DataError);
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

// Every ack-only datum op is write-behind, so a batched sub-op's
// failure surfaces as a DataError at the next synchronous boundary rather
// than at the buffered call itself — and later independent sub-ops in the
// same batch still apply, exactly as separate RPCs would.
TEST(AdlbData, PipelinedErrorsSurfaceDeferred) {
  run(1, 1, [](Client& c) {
    int64_t a = c.unique();
    int64_t b = c.unique();
    c.create(a, DataType::kInteger);
    c.store(a, "1");
    c.store(a, "2");  // double assignment: buffered, no throw here
    c.create(b, DataType::kInteger);
    c.store(b, "42");  // later sub-op, unaffected by the failure
    // The next sync point (any blocking RPC) surfaces the batched error.
    EXPECT_THROW(c.retrieve(a), DataError);
    // ... exactly once: the pipeline is clean again afterwards.
    EXPECT_EQ(c.retrieve(a), "1");
    EXPECT_EQ(c.retrieve(b), "42");
    EXPECT_FALSE(c.get(kTypeWork).has_value());
  });
}

// Read-after-write through the pipeline: buffered ops ship before any
// synchronous RPC leaves the client, so a retrieve right after a buffered
// create/store sees the datum (same-client), and a put's consumer sees
// datums stored before the put (cross-client, via task causality).
TEST(AdlbData, PipelinedOpsVisibleAcrossClients) {
  run(2, 2, [](Client& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 40; ++i) {
        int64_t id = c.unique();
        c.create(id, DataType::kString);
        c.store(id, "v" + std::to_string(i));
        c.put({kTypeWork, 0, 1, kAnyRank, std::to_string(id) + ":" + std::to_string(i)});
      }
      EXPECT_FALSE(c.get(kTypeControl).has_value());
    } else {
      int seen = 0;
      while (auto unit = c.get(kTypeWork)) {
        auto colon = unit->payload.find(':');
        int64_t id = std::stoll(unit->payload.substr(0, colon));
        EXPECT_EQ(c.retrieve(id), "v" + unit->payload.substr(colon + 1));
        ++seen;
      }
      EXPECT_EQ(seen, 40);
    }
  });
}

// ---- property sweep: work conservation under random workloads ----

// No padding: gtest names each case by printing the struct's raw bytes,
// so padding would put uninitialized bytes into the test IDs.
struct SweepParam {
  int nclients;
  int nservers;
  int64_t tasks_per_client;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

class AdlbSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AdlbSweep, EveryPutGotExactlyOnce) {
  auto p = GetParam();
  std::mutex mu;
  std::vector<std::string> got;
  run(p.nclients, p.nservers, [&](Client& c) {
    Rng rng(p.seed + static_cast<uint64_t>(c.rank()));
    for (int i = 0; i < p.tasks_per_client; ++i) {
      WorkUnit unit;
      unit.type = kTypeWork;
      unit.priority = static_cast<int>(rng.next_below(5));
      // A third of tasks are targeted at a random client.
      unit.target = rng.next_below(3) == 0
                        ? static_cast<int>(rng.next_below(static_cast<uint64_t>(p.nclients)))
                        : kAnyRank;
      unit.payload = std::to_string(c.rank()) + ":" + std::to_string(i);
      c.put(unit);
    }
    while (auto unit = c.get(kTypeWork)) {
      std::lock_guard<std::mutex> lock(mu);
      got.push_back(unit->payload);
    }
  });
  size_t expected = static_cast<size_t>(p.nclients) * static_cast<size_t>(p.tasks_per_client);
  EXPECT_EQ(got.size(), expected);
  std::set<std::string> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AdlbSweep,
    ::testing::Values(SweepParam{1, 1, 50, 1}, SweepParam{2, 1, 40, 2}, SweepParam{4, 1, 30, 3},
                      SweepParam{4, 2, 30, 4}, SweepParam{6, 3, 20, 5}, SweepParam{8, 2, 25, 6},
                      SweepParam{3, 3, 30, 7}, SweepParam{8, 4, 15, 8}));

// Repeated runs of the same dynamic workload terminate reliably (stress
// for the termination protocol's races).
TEST(Adlb, TerminationStress) {
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> executed{0};
    run(3, 2, [&](Client& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 5; ++i) c.put({kTypeWork, 0, kAnyRank, kAnyRank, "3"});
      }
      while (auto unit = c.get(kTypeWork)) {
        executed.fetch_add(1);
        int depth = std::stoi(unit->payload);
        if (depth > 0) c.put({kTypeWork, 0, kAnyRank, kAnyRank, std::to_string(depth - 1)});
      }
    });
    EXPECT_EQ(executed.load(), 20);
  }
}

}  // namespace
}  // namespace ilps::adlb
