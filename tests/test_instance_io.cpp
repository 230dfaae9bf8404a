#include "sweep/instance_io.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "fuzz/scenario.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sweep::dag {
namespace {

void expect_same_structure(const SweepInstance& a, const SweepInstance& b) {
  ASSERT_EQ(a.n_cells(), b.n_cells());
  ASSERT_EQ(a.n_directions(), b.n_directions());
  const TaskGraph& ga = a.task_graph();
  const TaskGraph& gb = b.task_graph();
  ASSERT_EQ(ga.n_edges(), gb.n_edges());
  for (std::size_t t = 0; t < ga.n_tasks(); ++t) {
    const auto sa = ga.successors(t);
    const auto sb = gb.successors(t);
    EXPECT_EQ(std::multiset<TaskGraph::Task>(sa.begin(), sa.end()),
              std::multiset<TaskGraph::Task>(sb.begin(), sb.end()))
        << "task " << t;
  }
}

std::string saved_text(const SweepInstance& instance) {
  std::stringstream buffer;
  save_instance(instance, buffer);
  return buffer.str();
}

TEST(InstanceIo, RoundTripRandomInstance) {
  const SweepInstance original = random_instance(50, 4, 6, 2.0, 17);
  std::stringstream buffer;
  save_instance(original, buffer);
  const SweepInstance loaded = load_instance(buffer);
  EXPECT_EQ(loaded.name(), "random");
  expect_same_structure(original, loaded);
  EXPECT_EQ(loaded.max_depth(), original.max_depth());
}

TEST(InstanceIo, RoundTripGeometricInstance) {
  const auto mesh = test::small_tet_mesh(4, 4, 2);
  const SweepInstance original = build_instance(mesh, level_symmetric(2));
  std::stringstream buffer;
  save_instance(original, buffer);
  const SweepInstance loaded = load_instance(buffer);
  expect_same_structure(original, loaded);
}

// The saved bytes of a small fixed instance, captured before instances
// dropped their per-direction DAGs: saving from the task graph must write
// the same edge order, and an empty direction as a bare "0" line.
TEST(InstanceIo, SaveInstanceBytesArePinned) {
  using Edges = std::vector<std::pair<NodeId, NodeId>>;
  std::vector<SweepDag> dags;
  dags.emplace_back(5, Edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  dags.emplace_back(5, Edges{{4, 3}, {3, 1}, {3, 0}, {1, 0}, {2, 0}});
  dags.emplace_back(5, Edges{});
  const SweepInstance instance(5, std::move(dags), "golden pair");
  EXPECT_EQ(saved_text(instance),
            "sweepinst 2\nname 11 golden pair\n5 3\n"
            "5\n0 1\n0 2\n1 3\n2 3\n3 4\n"
            "5\n1 0\n2 0\n3 1\n3 0\n4 3\n"
            "0\n");
}

// Regression (failed before the v2 format): a name containing whitespace was
// written verbatim but read back as a single >> token, so the loader consumed
// "tet" as the name and then choked on (or silently misparsed) the rest of
// the line as the shape.
TEST(InstanceIo, RoundTripNameWithWhitespace) {
  const SweepInstance original(
      4, {SweepDag(4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}})},
      "tet mesh v2 (fine, scale 0.5)");
  std::stringstream buffer;
  save_instance(original, buffer);
  const SweepInstance loaded = load_instance(buffer);
  EXPECT_EQ(loaded.name(), "tet mesh v2 (fine, scale 0.5)");
  expect_same_structure(original, loaded);
  EXPECT_EQ(saved_text(original), saved_text(loaded));
}

// Regression (failed before): save_instance happily wrote k == 0, but
// load_instance rejected it as a "bad shape line", so a saved empty instance
// could never be reloaded. The pair is now symmetric, consistent with the
// n_cells == 0 support.
TEST(InstanceIo, RoundTripEmptyInstance) {
  const SweepInstance no_directions(5, {}, "empty_dirs");
  std::stringstream buffer;
  save_instance(no_directions, buffer);
  const SweepInstance loaded = load_instance(buffer);
  EXPECT_EQ(loaded.n_cells(), 5u);
  EXPECT_EQ(loaded.n_directions(), 0u);
  EXPECT_EQ(loaded.name(), "empty_dirs");
  EXPECT_EQ(saved_text(no_directions), saved_text(loaded));

  const SweepInstance nothing(0, {}, "void");
  std::stringstream buffer2;
  save_instance(nothing, buffer2);
  const SweepInstance loaded2 = load_instance(buffer2);
  EXPECT_EQ(loaded2.n_cells(), 0u);
  EXPECT_EQ(loaded2.n_directions(), 0u);

  // The old v1 spelling of an empty instance loads too.
  std::stringstream v1("sweepinst 1\nname x\n10 0\n");
  const SweepInstance legacy = load_instance(v1);
  EXPECT_EQ(legacy.n_cells(), 10u);
  EXPECT_EQ(legacy.n_directions(), 0u);
}

// Regression (failed before): the loader sized a std::vector from the file's
// per-DAG edge count before reading a single edge, so a three-line hostile
// file could demand a multi-GB allocation; and endpoints were never checked
// against n, so out-of-range node ids flowed into the CSR builder.
TEST(InstanceIo, HostileEdgeCountAndEndpointsAreRejected) {
  // 4 billion claimed edges, none present: must fail on the missing data,
  // not allocate up front (a pre-fix build dies in operator new here).
  std::stringstream huge("sweepinst 2\nname 1 x\n3 1\n4000000000\n0 1\n");
  EXPECT_THROW(load_instance(huge), std::runtime_error);

  // Edge endpoint >= n.
  std::stringstream oob("sweepinst 2\nname 1 x\n3 1\n1\n0 7\n");
  EXPECT_THROW(load_instance(oob), std::runtime_error);
  std::stringstream oob_src("sweepinst 2\nname 1 x\n3 1\n1\n9 0\n");
  EXPECT_THROW(load_instance(oob_src), std::runtime_error);

  // Shape that overflows the 32-bit task-id space.
  std::stringstream wide("sweepinst 2\nname 1 x\n4000000000 4000000000\n");
  EXPECT_THROW(load_instance(wide), std::runtime_error);

  // Hostile name length must not drive the allocation either.
  std::stringstream long_name("sweepinst 2\nname 4000000000 x\n3 1\n0\n");
  EXPECT_THROW(load_instance(long_name), std::runtime_error);

  // Each count fits 32-bit offsets but their sum does not: rejected at the
  // second count, before an edge of it is read, with a runtime_error rather
  // than the invalid_argument TaskGraph::build would throw.
  std::stringstream summed(
      "sweepinst 2\nname 1 x\n3 2\n1\n0 1\n4294967294\n0 1\n");
  try {
    (void)load_instance(summed);
    FAIL() << "a summed edge count past 32 bits was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("edge count too large"),
              std::string::npos)
        << e.what();
  }
}

TEST(InstanceIo, RejectsBadInput) {
  std::stringstream bad("wrong 1\n");
  EXPECT_THROW(load_instance(bad), std::runtime_error);
  std::stringstream bad_version("sweepinst 3\nname 1 x\n1 1\n0\n");
  EXPECT_THROW(load_instance(bad_version), std::runtime_error);
  std::stringstream truncated("sweepinst 2\nname 1 x\n3 1\n2\n0 1\n");
  EXPECT_THROW(load_instance(truncated), std::runtime_error);
  std::stringstream no_name("sweepinst 2\nshape 3 1\n");
  EXPECT_THROW(load_instance(no_name), std::runtime_error);
  std::stringstream cut_name("sweepinst 2\nname 20 short");
  EXPECT_THROW(load_instance(cut_name), std::runtime_error);
}

// Regression (failed before): a cyclic direction loaded fine and only
// failed later, in SweepDag::levels, with a logic_error ("graph has a
// cycle") that callers treat as a bug rather than bad input. The instance
// constructor now computes the levels, so the loader checks first.
TEST(InstanceIo, RejectsCyclicDirection) {
  // Direction 0 is a chain; direction 1 is the 3-cycle 0 -> 1 -> 2 -> 0.
  std::stringstream cyclic(
      "sweepinst 2\nname 3 cyc\n3 2\n2\n0 1\n1 2\n3\n0 1\n1 2\n2 0\n");
  try {
    (void)load_instance(cyclic);
    FAIL() << "a cyclic direction was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("direction 1"), std::string::npos)
        << e.what();
  }

  // A self-loop is a cycle too.
  std::stringstream self_loop("sweepinst 2\nname 1 x\n2 1\n1\n1 1\n");
  EXPECT_THROW(load_instance(self_loop), std::runtime_error);
}

TEST(InstanceIo, FileRoundTrip) {
  const SweepInstance original = chain_instance(20, 2, 23);
  const std::string path = ::testing::TempDir() + "/sweep_inst_io.txt";
  save_instance(original, path);
  const SweepInstance loaded = load_instance(path);
  expect_same_structure(original, loaded);
  EXPECT_THROW(load_instance(path + ".missing"), std::runtime_error);
}

// Round-trip property over the fuzz scenario families: save -> load -> save
// must be byte-identical (the second save proves the loaded instance carries
// exactly the information the first save wrote — names with spaces, empty
// directions, edge order, everything).
TEST(InstanceIo, SaveLoadSaveIsByteIdenticalAcrossFamilies) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    fuzz::Scenario scenario = fuzz::sample_scenario(rng);
    scenario.hostile = fuzz::Hostility::kNone;
    const SweepInstance original = fuzz::materialize(scenario);
    const std::string first = saved_text(original);
    std::stringstream buffer(first);
    const SweepInstance loaded = load_instance(buffer);
    const std::string second = saved_text(loaded);
    ASSERT_EQ(first, second) << "family "
                             << static_cast<std::uint32_t>(scenario.family)
                             << " seed " << scenario.seed;
    expect_same_structure(original, loaded);
  }
}

}  // namespace
}  // namespace sweep::dag
