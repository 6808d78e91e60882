#include "routing/path_table.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/error.hpp"
#include "routing/bgp_sim.hpp"

namespace dcv::routing {
namespace {

using topo::Asn;

TEST(PathTable, InternDedupesByContent) {
  PathTable table;
  const std::vector<Asn> path{65001, 65002, 65003};
  const PathId first = table.intern(path);
  const std::vector<Asn> copy = path;
  EXPECT_EQ(table.intern(copy), first);
  EXPECT_NE(first, kEmptyPathId);
  EXPECT_EQ(table.size(), 1u);

  const auto view = table.view(first);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), path.begin(), path.end()));
}

TEST(PathTable, IdEqualityIsContentEquality) {
  PathTable table;
  const std::vector<Asn> a{65001, 65002};
  const std::vector<Asn> b{65002, 65001};  // order matters for AS-paths
  const std::vector<Asn> c{65001};
  const PathId ia = table.intern(a);
  const PathId ib = table.intern(b);
  const PathId ic = table.intern(c);
  EXPECT_NE(ia, ib);
  EXPECT_NE(ia, ic);
  EXPECT_NE(ib, ic);
  EXPECT_EQ(table.size(), 3u);
}

TEST(PathTable, EmptyPathIsIdZero) {
  PathTable table;
  EXPECT_EQ(table.intern({}), kEmptyPathId);
  EXPECT_TRUE(table.view(kEmptyPathId).empty());
  EXPECT_EQ(table.size(), 0u);
}

TEST(PathTable, UnknownIdThrows) {
  PathTable table;
  EXPECT_THROW((void)table.view(12345), InvalidArgument);
}

TEST(PathTable, BytesGrowWithDistinctPaths) {
  PathTable table;
  const std::size_t before = table.bytes();
  std::vector<Asn> path{65000};
  for (Asn asn = 1; asn <= 64; ++asn) {
    path.push_back(asn);
    (void)table.intern(path);
  }
  EXPECT_GT(table.bytes(), before);
  EXPECT_EQ(table.size(), 64u);
}

// Run under TSan: concurrent interns of overlapping path sets racing
// lock-free view() readers. Every thread must agree on id <-> content.
TEST(PathTable, ConcurrentInternAndViewAgree) {
  PathTable table;
  constexpr int kThreads = 8;
  constexpr int kPaths = 512;

  // Each thread interns the same kPaths paths (in a thread-specific order)
  // and immediately validates the view of every id it receives.
  std::vector<std::vector<PathId>> ids(kThreads,
                                       std::vector<PathId>(kPaths, 0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &ids, t] {
      for (int i = 0; i < kPaths; ++i) {
        // Thread-specific visiting order over a shared path universe.
        const int p = (i * 37 + t * 101) % kPaths;
        const std::vector<Asn> path{static_cast<Asn>(64500 + p % 97),
                                    static_cast<Asn>(64500 + p % 31),
                                    static_cast<Asn>(64500 + p)};
        const PathId id = table.intern(path);
        const auto view = table.view(id);
        ASSERT_TRUE(std::equal(view.begin(), view.end(), path.begin(),
                               path.end()));
        ids[t][p] = id;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Hash-consing held across threads: same content, same id everywhere.
  for (int t = 1; t < kThreads; ++t) {
    for (int p = 0; p < kPaths; ++p) {
      ASSERT_EQ(ids[t][p], ids[0][p]) << "path " << p;
    }
  }
  EXPECT_EQ(table.size(), kPaths);
}

// Arena-reuse property: a cleared Rib rebuilds identical content without
// allocating — capacities (and therefore buffer addresses) are retained.
TEST(RibArena, ClearRetainsCapacityAndRebuildsInPlace) {
  PathTable& table = global_path_table();
  const std::vector<Asn> path{65001, 65002};
  const PathId id = table.intern(path);

  // Hop lists longer than kInlineHops force arena storage.
  const std::vector<topo::DeviceId> hops{1, 2, 3, 4, 5};
  Rib rib;
  for (std::uint32_t i = 0; i < 64; ++i) {
    rib.append(net::Prefix::parse(std::to_string(i % 250) + "." +
                                  std::to_string(i / 250) + ".0.0/24"),
               id, hops, false, 0);
  }
  rib.sort_by_prefix();
  const std::size_t bytes = rib.memory_bytes();
  ASSERT_GT(bytes, 0u);
  const topo::DeviceId* arena_data = rib.next_hops(*rib.begin()).data();

  for (int round = 0; round < 10; ++round) {
    rib.clear();
    EXPECT_EQ(rib.memory_bytes(), bytes) << "round " << round;
    for (std::uint32_t i = 0; i < 64; ++i) {
      rib.append(net::Prefix::parse(std::to_string(i % 250) + "." +
                                    std::to_string(i / 250) + ".0.0/24"),
                 id, hops, false, 0);
    }
    rib.sort_by_prefix();
    // Same capacity and the arena kept its address: no reallocation.
    EXPECT_EQ(rib.memory_bytes(), bytes) << "round " << round;
    EXPECT_EQ(rib.next_hops(*rib.begin()).data(), arena_data)
        << "round " << round;
  }
}

// splice() replaces, inserts and removes entries in place, reports what it
// displaced, and leaves replaced out-of-line hop lists behind as dead arena
// words until compact_arena(); putting the displaced records back and
// truncating the arena restores the original exactly.
TEST(RibArena, SpliceAndItsUndoRestoreTheOriginal) {
  PathTable& table = global_path_table();
  const PathId id = table.intern(std::vector<Asn>{65010});
  const std::vector<topo::DeviceId> wide{1, 2, 3, 4};
  const std::vector<topo::DeviceId> narrow{5};
  const auto prefix = [](int i) {
    return net::Prefix::parse("10." + std::to_string(i) + ".0.0/24");
  };
  Rib rib;
  for (const int i : {1, 3, 5, 7}) {
    rib.append(prefix(i), id, i == 3 ? narrow : wide, false, 0);
  }
  const Rib original = rib;
  const std::size_t arena = rib.arena_size();
  ASSERT_EQ(rib.live_hops(), 12u);

  // Replace 10.1 (wide -> narrow), insert 10.2 and 10.9 (wide), drop 10.5.
  Rib source;
  source.append(prefix(1), id, narrow, false, 0);
  source.append(prefix(2), id, wide, false, 0);
  source.append(prefix(9), id, wide, false, 0);
  std::vector<RibEntry> records;
  for (const RibEntry& entry : source) {
    records.push_back(rib.adopt(source, entry));
  }
  const std::vector<net::Prefix> removed{prefix(5)};
  std::vector<Rib::Displaced> displaced;
  rib.splice(records, removed, &displaced);

  std::vector<net::Prefix> order;
  for (const RibEntry& entry : rib) order.push_back(entry.prefix);
  EXPECT_EQ(order, (std::vector<net::Prefix>{prefix(1), prefix(2), prefix(3),
                                             prefix(7), prefix(9)}));
  const auto hops = [&rib](int i, const auto& prefix_of) {
    const auto span = rib.next_hops(rib.at(prefix_of(i)));
    return std::vector<topo::DeviceId>(span.begin(), span.end());
  };
  EXPECT_EQ(hops(1, prefix), narrow);
  EXPECT_EQ(hops(2, prefix), wide);
  EXPECT_EQ(hops(9, prefix), wide);
  EXPECT_EQ(hops(7, prefix), wide);
  // 10.1's and 10.5's wide lists are dead; 10.2's and 10.9's are live.
  EXPECT_EQ(rib.live_hops(), 12u);
  EXPECT_EQ(rib.dead_hops(), 8u);
  ASSERT_EQ(displaced.size(), 4u);
  EXPECT_TRUE(displaced[0].present);   // 10.1, replaced
  EXPECT_FALSE(displaced[1].present);  // 10.2, inserted
  EXPECT_FALSE(displaced[2].present);  // 10.9, inserted
  EXPECT_TRUE(displaced[3].present);   // 10.5, removed
  EXPECT_EQ(displaced[3].record.prefix, prefix(5));

  Rib compacted = rib;
  compacted.compact_arena();
  EXPECT_EQ(compacted, rib);
  EXPECT_EQ(compacted.dead_hops(), 0u);
  EXPECT_EQ(compacted.arena_size(), 12u);

  for (auto it = displaced.rbegin(); it != displaced.rend(); ++it) {
    if (it->present) {
      rib.splice({&it->record, 1}, {}, nullptr);
    } else {
      rib.splice({}, {&it->record.prefix, 1}, nullptr);
    }
  }
  rib.truncate_arena(arena);
  EXPECT_EQ(rib, original);
  EXPECT_EQ(rib.live_hops(), 12u);
  EXPECT_EQ(rib.dead_hops(), 0u);
}

}  // namespace
}  // namespace dcv::routing
