// Matching-semantics suite for the tag-indexed mailbox. The index must be
// invisible: every test here states an MPI matching guarantee (per-pair
// FIFO, wildcard arrival order, envelope wildcards, probe consistency)
// that held for the old linear-scan mailbox and must keep holding.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.h"
#include "mpi/comm.h"

namespace ilps::mpi {
namespace {

// Self-sends from a single thread give a deterministic arrival order, so
// wildcard matching across buckets can be checked exactly.
TEST(Matching, WildcardFollowsArrivalOrderAcrossTags) {
  World w(1);
  w.run([](Comm& c) {
    c.send_str(0, 3, "first");
    c.send_str(0, 1, "second");
    c.send_str(0, 2, "third");
    // ANY matching must pop oldest arrival first, regardless of which
    // per-tag bucket each message landed in.
    EXPECT_EQ(ser::to_string(c.recv().data), "first");
    EXPECT_EQ(ser::to_string(c.recv().data), "second");
    EXPECT_EQ(ser::to_string(c.recv().data), "third");
  });
}

TEST(Matching, WildcardFollowsArrivalOrderAcrossSources) {
  World w(3);
  w.run([](Comm& c) {
    // Sends are eager: the message is in rank 0's mailbox before the
    // sender enters the barrier, so barriers sequence arrivals exactly.
    if (c.rank() == 1) c.send_str(0, 5, "from-1");
    c.barrier();
    if (c.rank() == 2) c.send_str(0, 6, "from-2");
    c.barrier();
    if (c.rank() == 0) {
      Message a = c.recv();
      EXPECT_EQ(a.source, 1);
      Message b = c.recv();
      EXPECT_EQ(b.source, 2);
    }
  });
}

TEST(Matching, ExactRecvDoesNotDisturbFifoOfOtherBuckets) {
  World w(1);
  w.run([](Comm& c) {
    c.send_str(0, 1, "a1");
    c.send_str(0, 2, "b1");
    c.send_str(0, 1, "a2");
    c.send_str(0, 2, "b2");
    // Take the tag-2 stream out of the middle...
    EXPECT_EQ(ser::to_string(c.recv(0, 2).data), "b1");
    // ...then wildcard: the oldest remaining message is a1.
    EXPECT_EQ(ser::to_string(c.recv().data), "a1");
    EXPECT_EQ(ser::to_string(c.recv().data), "a2");
    EXPECT_EQ(ser::to_string(c.recv().data), "b2");
  });
}

TEST(Matching, PerPairFifoWithInterleavedTags) {
  World w(2);
  constexpr int kPerTag = 100;
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kPerTag; ++i) {
        ser::Writer odd = c.writer();
        odd.put_i32(i);
        c.send(1, 1, std::move(odd));
        ser::Writer even = c.writer();
        even.put_i32(i);
        c.send(1, 2, std::move(even));
      }
    } else {
      // Drain tag 1 fully first, then tag 2; each stream must be in
      // send order even though the sends interleaved the two tags.
      for (int tag = 1; tag <= 2; ++tag) {
        for (int i = 0; i < kPerTag; ++i) {
          Message m = c.recv(0, tag);
          EXPECT_EQ(m.reader().get_i32(), i) << "tag " << tag;
        }
      }
    }
  });
}

TEST(Matching, SourceWildcardWithExactTag) {
  World w(3);
  w.run([](Comm& c) {
    if (c.rank() == 1) c.send_str(0, 7, "x");
    c.barrier();
    if (c.rank() == 2) c.send_str(0, 7, "y");
    c.barrier();
    if (c.rank() == 0) {
      Message a = c.recv(ANY_SOURCE, 7);
      EXPECT_EQ(a.source, 1);
      Message b = c.recv(ANY_SOURCE, 7);
      EXPECT_EQ(b.source, 2);
    }
  });
}

// A probe's reported envelope must be immediately receivable: rank 0 is
// the only consumer, so between its iprobe and its try_recv nothing can
// steal the message, no matter how many producers are posting.
TEST(Matching, ProbeThenTryRecvConsistentUnderConcurrentPosts) {
  constexpr int kRanks = 8;
  constexpr int kPerSender = 100;
  World w(kRanks);
  w.run([](Comm& c) {
    if (c.rank() != 0) {
      for (int i = 0; i < kPerSender; ++i) {
        ser::Writer msg = c.writer();
        msg.put_i32(i);
        c.send(0, c.rank(), std::move(msg));
      }
      return;
    }
    std::vector<int> next(kRanks, 0);
    int received = 0;
    while (received < (kRanks - 1) * kPerSender) {
      int src = -1;
      int tag = -1;
      if (!c.iprobe(ANY_SOURCE, ANY_TAG, &src, &tag)) {
        std::this_thread::yield();
        continue;
      }
      EXPECT_EQ(tag, src);  // senders tag with their own rank
      auto m = c.try_recv(src, tag);
      ASSERT_TRUE(m.has_value()) << "probed envelope vanished";
      EXPECT_EQ(m->source, src);
      EXPECT_EQ(m->tag, tag);
      // Per-sender FIFO holds even under interleaved wildcard probing.
      EXPECT_EQ(m->reader().get_i32(), next[static_cast<size_t>(src)]++);
      ++received;
    }
  });
}

TEST(Matching, TimedRecvTimesOutThenCatchesLateMessage) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      // Nothing queued: both the exact and the wildcard timed paths must
      // time out empty-handed.
      EXPECT_FALSE(c.recv_for(0.02, 1, 9).has_value());
      EXPECT_FALSE(c.recv_for(0.02).has_value());
      c.barrier();
      auto m = c.recv_for(10.0, 1, 9);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(ser::to_string(m->data), "late");
    } else {
      c.barrier();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      c.send_str(0, 9, "late");
    }
  });
}

// Regression (the ANY_TAG/reserved-tag bug): a plain recv racing a death
// notice must receive the user message and leave the notice queued. With
// the old matcher the wildcard consumed kTagFault and the ADLB server
// would never learn the rank died.
TEST(Matching, PlainWildcardRecvSkipsDeathNotice) {
  World w(3);
  FaultPlan plan;
  plan.kill_rank(/*rank=*/1, /*at_unit=*/1);
  w.set_fault_plan(std::move(plan));
  w.run([](Comm& c) {
    if (c.rank() == 1) {
      c.unit_taken();  // dies here
      c.send_str(0, 5, "never sent");
      return;
    }
    if (c.rank() == 2) {
      c.send_str(0, 7, "user message");
      return;
    }
    // Wait until the death notice is definitely in the mailbox, so the
    // wildcard recv below genuinely races past it.
    while (!c.iprobe(1, kTagFault)) std::this_thread::yield();
    Message m = c.recv(ANY_SOURCE, ANY_TAG);
    EXPECT_EQ(m.source, 2);
    EXPECT_EQ(m.tag, 7);
    // The notice is still there for a fault-aware receiver.
    EXPECT_TRUE(c.iprobe(1, kTagFault));
    EXPECT_FALSE(c.try_recv(ANY_SOURCE, ANY_TAG).has_value());
    auto notice = c.try_recv(ANY_SOURCE, ANY_TAG_OR_FAULT);
    ASSERT_TRUE(notice.has_value());
    EXPECT_EQ(notice->source, 1);
    EXPECT_EQ(notice->tag, kTagFault);
  });
  std::vector<int> dead = w.dead_ranks();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 1);
}

TEST(Matching, FaultWildcardStillMatchesUserTags) {
  World w(2);
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_str(1, 4, "normal");
    } else {
      Message m = c.recv(ANY_SOURCE, ANY_TAG_OR_FAULT);
      EXPECT_EQ(m.tag, 4);
      EXPECT_EQ(ser::to_string(m.data), "normal");
    }
  });
}

// A self-send posts while no receiver is registered, so the wakeup must
// be suppressed; the recv then finds the message without ever sleeping.
TEST(Stats, SelfSendSuppressesWakeup) {
  World w(1);
  w.run([](Comm& c) {
    c.send_str(0, 0, "x");
    c.recv();
  });
  TrafficStats s = w.stats();
  EXPECT_GE(s.wakeups_suppressed, 1u);
}

// Steady-state ping-pong on pooled writers: after warm-up every send
// draws a recycled buffer, so pool hits must dominate misses.
TEST(Stats, BufferPoolReusesAcrossExchanges) {
  World w(2);
  constexpr int kRounds = 64;
  w.run([](Comm& c) {
    int peer = 1 - c.rank();
    for (int i = 0; i < kRounds; ++i) {
      if (c.rank() == 0) {
        ser::Writer msg = c.writer();
        msg.put_i32(i);
        c.send(peer, 1, std::move(msg));
        Message m = c.recv(peer, 2);
        EXPECT_EQ(m.reader().get_i32(), i);
        c.recycle(std::move(m.data));
      } else {
        Message m = c.recv(peer, 1);
        int v = m.reader().get_i32();
        c.recycle(std::move(m.data));
        ser::Writer msg = c.writer();
        msg.put_i32(v);
        c.send(peer, 2, std::move(msg));
      }
    }
  });
  TrafficStats s = w.stats();
  EXPECT_GT(s.pool_hits, s.pool_misses);
}

}  // namespace
}  // namespace ilps::mpi
