// Tests for the zero-copy artifact format (DESIGN.md §13): pack -> load is
// the identity on the task graph, loads are literally zero-copy (the CSR
// views point into the artifact image), packing is deterministic, the
// optional sections round-trip, and every corruption class — truncation,
// header surgery, payload flips, table surgery, and structurally valid but
// cyclic level arrays — is rejected with ArtifactError.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "core/random_delay.hpp"
#include "core/validate.hpp"
#include "sweep/artifact.hpp"
#include "sweep/directions.hpp"
#include "sweep/random_dag.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sweep::dag {
namespace {

// RawHeader field offsets (the on-disk layout; see artifact.cpp).
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderBytes = 12;
constexpr std::size_t kOffContentHash = 16;
constexpr std::size_t kOffNSections = 56;
constexpr std::size_t kOffTableOffset = 64;
constexpr std::size_t kOffFileBytes = 72;
constexpr std::size_t kHeaderBytes = 96;
constexpr std::size_t kSectionBytes = 32;

template <typename T>
T read_at(const std::vector<std::byte>& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void write_at(std::vector<std::byte>& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

/// Recomputes the content hash over the section payloads (table order) and
/// patches the header, so tests can make *structural* mutations that the
/// hash check would otherwise mask.
void repair_hash(std::vector<std::byte>& bytes) {
  const auto n_sections = read_at<std::uint64_t>(bytes, kOffNSections);
  const auto table = read_at<std::uint64_t>(bytes, kOffTableOffset);
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (std::uint64_t s = 0; s < n_sections; ++s) {
    const std::size_t entry = table + s * kSectionBytes;
    const auto offset = read_at<std::uint64_t>(bytes, entry + 8);
    const auto size = read_at<std::uint64_t>(bytes, entry + 16);
    hash = util::fnv1a(
        std::span<const std::byte>(bytes.data() + offset, size), hash);
  }
  write_at(bytes, kOffContentHash, hash);
}

/// Byte offset of section `id`'s table entry, or npos.
std::size_t find_entry(const std::vector<std::byte>& bytes,
                       ArtifactSection id) {
  const auto n_sections = read_at<std::uint64_t>(bytes, kOffNSections);
  const auto table = read_at<std::uint64_t>(bytes, kOffTableOffset);
  for (std::uint64_t s = 0; s < n_sections; ++s) {
    const std::size_t entry = table + s * kSectionBytes;
    if (read_at<std::uint32_t>(bytes, entry) ==
        static_cast<std::uint32_t>(id)) {
      return entry;
    }
  }
  return std::string::npos;
}

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

SweepInstance make_instance() {
  return random_instance(60, 3, 5, 1.8, 17);
}

TEST(Artifact, PackLoadIsTheIdentityOnTheTaskGraph) {
  const SweepInstance instance = make_instance();
  const auto artifact = Artifact::from_memory(pack_artifact(instance));
  const TaskGraph& got = artifact->task_graph();
  const TaskGraph& want = instance.task_graph();
  EXPECT_EQ(got.n_cells(), want.n_cells());
  EXPECT_EQ(got.n_directions(), want.n_directions());
  EXPECT_EQ(got.max_level(), want.max_level());
  EXPECT_EQ(got.max_indegree(), want.max_indegree());
  EXPECT_TRUE(spans_equal(got.offsets(), want.offsets()));
  EXPECT_TRUE(spans_equal(got.targets(), want.targets()));
  EXPECT_TRUE(spans_equal(got.indegrees(), want.indegrees()));
  EXPECT_TRUE(spans_equal(got.levels(), want.levels()));
  EXPECT_TRUE(spans_equal(got.cells(), want.cells()));
  EXPECT_EQ(artifact->name(), instance.name());
  EXPECT_FALSE(artifact->mapped());
  EXPECT_FALSE(artifact->has_directions());
  EXPECT_FALSE(artifact->has_descendants());
  EXPECT_EQ(artifact->n_partitions(), 0u);
}

TEST(Artifact, ChecksAndBoundsReadTheLoadedGraphLikeTheInstance) {
  // validate_schedule, analyze_schedule and compute_lower_bounds take a
  // TaskGraph: on the zero-copy graph of a packed instance they must give
  // exactly what they give on the instance itself.
  const SweepInstance instance = make_instance();
  const auto artifact = Artifact::from_memory(pack_artifact(instance));
  const TaskGraph& graph = artifact->task_graph();
  ASSERT_TRUE(graph.borrows());
  const std::size_t m = 4;
  util::Rng rng(3);
  const core::Assignment assignment =
      core::random_assignment(instance.n_cells(), m, rng);
  const auto priorities = core::random_delay_priorities(
      instance, core::random_delays(instance.n_directions(), rng));
  core::ListScheduleOptions options;
  options.priorities = priorities;
  // A list schedule (no avoidable idle) and a layer-synchronous one (some).
  std::vector<core::Schedule> schedules;
  schedules.push_back(core::list_schedule(instance, assignment, m, options));
  schedules.push_back(
      core::random_delay_schedule(instance, m, rng, assignment).schedule);
  for (const core::Schedule& schedule : schedules) {
    EXPECT_TRUE(core::validate_schedule(instance, schedule));
    EXPECT_TRUE(core::validate_schedule(graph, schedule));
    const core::ScheduleAnalysis want = core::analyze_schedule(instance, schedule);
    const core::ScheduleAnalysis got = core::analyze_schedule(graph, schedule);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.total_idle_slots, want.total_idle_slots);
    EXPECT_EQ(got.avoidable_idle_slots, want.avoidable_idle_slots);
    EXPECT_EQ(got.min_load, want.min_load);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.mean_utilization, want.mean_utilization);
    EXPECT_EQ(got.direction_finish, want.direction_finish);
    EXPECT_EQ(got.realized_critical_path, want.realized_critical_path);
  }
  EXPECT_EQ(core::analyze_schedule(graph, schedules[0]).avoidable_idle_slots,
            0u);
  EXPECT_GT(core::analyze_schedule(graph, schedules[1]).avoidable_idle_slots,
            0u);

  // Break one edge: both report the same first violation.
  core::Schedule broken = schedules[0];
  std::size_t from = 0;
  while (graph.out_degree(from) == 0) ++from;
  broken.set_start(graph.successors(from)[0], broken.start(from));
  const core::ValidationResult want = core::validate_schedule(instance, broken);
  const core::ValidationResult got = core::validate_schedule(graph, broken);
  EXPECT_FALSE(got);
  EXPECT_NE(got.error.find("precedence"), std::string::npos);
  EXPECT_EQ(got.error, want.error);

  for (const std::size_t procs : {1u, 4u, 7u, 1000u}) {
    const core::LowerBounds want_lb = core::compute_lower_bounds(instance, procs);
    const core::LowerBounds got_lb = core::compute_lower_bounds(graph, procs);
    EXPECT_EQ(got_lb.average_load, want_lb.average_load);
    EXPECT_EQ(got_lb.directions, want_lb.directions);
    EXPECT_EQ(got_lb.depth, want_lb.depth);
    EXPECT_EQ(got_lb.depth, static_cast<std::size_t>(graph.max_level()) + 1);
  }
}

TEST(Artifact, LoadIsZeroCopy) {
  // from_memory takes ownership of the buffer by move, which preserves the
  // allocation — so the loaded graph's CSR views must point INTO it.
  const SweepInstance instance = make_instance();
  std::vector<std::byte> image = pack_artifact(instance);
  const std::byte* base = image.data();
  const std::byte* end = base + image.size();
  const auto artifact = Artifact::from_memory(std::move(image));
  const auto* p =
      reinterpret_cast<const std::byte*>(artifact->task_graph().offsets().data());
  EXPECT_GE(p, base);
  EXPECT_LT(p, end);
}

TEST(Artifact, MapFileServesTheSameBytes) {
  const SweepInstance instance = make_instance();
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "roundtrip.sweepart")
          .string();
  save_artifact(instance, path);
  const auto mapped = Artifact::map_file(path);
  const auto in_memory = Artifact::from_memory(pack_artifact(instance));
  EXPECT_TRUE(mapped->mapped());
  EXPECT_EQ(mapped->content_hash(), in_memory->content_hash());
  EXPECT_EQ(mapped->file_bytes(), in_memory->file_bytes());
  EXPECT_TRUE(spans_equal(mapped->task_graph().targets(),
                          in_memory->task_graph().targets()));
  std::filesystem::remove(path);
}

TEST(Artifact, PackingIsDeterministic) {
  const SweepInstance instance = make_instance();
  EXPECT_EQ(pack_artifact(instance), pack_artifact(instance));
  ArtifactWriteOptions with_desc;
  with_desc.include_descendants = true;
  EXPECT_NE(Artifact::from_memory(pack_artifact(instance))->content_hash(),
            Artifact::from_memory(pack_artifact(instance, with_desc))
                ->content_hash());
}

TEST(Artifact, OptionalSectionsRoundTrip) {
  const SweepInstance instance = make_instance();
  const std::size_t n = instance.n_cells();
  const std::size_t k = instance.n_directions();

  DirectionSet dirs;
  for (std::size_t i = 0; i < k; ++i) {
    dirs.directions.push_back({1.0 + i, 2.0 + i, 3.0 + i});
    dirs.weights.push_back(0.5 * (i + 1));
  }
  ArtifactPartition part;
  part.n_parts = 4;
  for (std::size_t v = 0; v < n; ++v) {
    part.assignment.push_back(static_cast<std::uint32_t>(v % 4));
  }
  const std::vector<ArtifactPartition> partitions = {part};

  ArtifactWriteOptions options;
  options.directions = &dirs;
  options.partitions = &partitions;
  options.include_descendants = true;
  const auto artifact =
      Artifact::from_memory(pack_artifact(instance, options));

  ASSERT_TRUE(artifact->has_directions());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(artifact->direction(i).x, dirs.directions[i].x);
    EXPECT_EQ(artifact->direction(i).z, dirs.directions[i].z);
    EXPECT_EQ(artifact->direction_weights()[i], dirs.weights[i]);
  }
  ASSERT_TRUE(artifact->has_descendants());
  for (std::size_t i = 0; i < k; ++i) {
    const auto counts = artifact->descendant_counts(i);
    const auto& want = instance.exact_descendant_counts(i);
    ASSERT_EQ(counts.size(), want.size());
    for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(counts[v], want[v]);
  }
  ASSERT_EQ(artifact->n_partitions(), 1u);
  EXPECT_EQ(artifact->partition_parts(0), 4u);
  EXPECT_TRUE(spans_equal(artifact->partition(0),
                          std::span<const std::uint32_t>(part.assignment)));
}

TEST(Artifact, PackRejectsMalformedOptions) {
  const SweepInstance instance = make_instance();
  {
    DirectionSet dirs;  // wrong size
    dirs.directions.push_back({1, 0, 0});
    dirs.weights.push_back(1.0);
    ArtifactWriteOptions options;
    options.directions = &dirs;
    EXPECT_THROW(pack_artifact(instance, options), ArtifactError);
  }
  {
    ArtifactPartition part;  // assignment shorter than n_cells
    part.n_parts = 2;
    part.assignment = {0, 1};
    const std::vector<ArtifactPartition> partitions = {part};
    ArtifactWriteOptions options;
    options.partitions = &partitions;
    EXPECT_THROW(pack_artifact(instance, options), ArtifactError);
  }
  {
    ArtifactPartition part;  // entry >= n_parts
    part.n_parts = 2;
    part.assignment.assign(instance.n_cells(), 0);
    part.assignment[0] = 2;
    const std::vector<ArtifactPartition> partitions = {part};
    ArtifactWriteOptions options;
    options.partitions = &partitions;
    EXPECT_THROW(pack_artifact(instance, options), ArtifactError);
  }
}

TEST(Artifact, TruncationAndPaddingAreRejected) {
  const std::vector<std::byte> bytes = pack_artifact(make_instance());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{40}, kHeaderBytes - 1, kHeaderBytes,
        bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::byte> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(Artifact::from_memory(std::move(cut)), ArtifactError)
        << "kept " << keep << " of " << bytes.size();
  }
  std::vector<std::byte> padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_THROW(Artifact::from_memory(std::move(padded)), ArtifactError);
}

TEST(Artifact, HeaderSurgeryIsRejected) {
  const std::vector<std::byte> bytes = pack_artifact(make_instance());
  auto mutated = [&](auto&& fn) {
    std::vector<std::byte> copy = bytes;
    fn(copy);
    return copy;
  };
  // Bad magic.
  EXPECT_THROW(Artifact::from_memory(
                   mutated([](auto& b) { b[0] = std::byte{'X'}; })),
               ArtifactError);
  // Unsupported version.
  EXPECT_THROW(
      Artifact::from_memory(mutated(
          [](auto& b) { write_at<std::uint32_t>(b, kOffVersion, 99); })),
      ArtifactError);
  // Wrong header size.
  EXPECT_THROW(
      Artifact::from_memory(mutated(
          [](auto& b) { write_at<std::uint32_t>(b, kOffHeaderBytes, 48); })),
      ArtifactError);
  // Lying file size.
  EXPECT_THROW(Artifact::from_memory(mutated([](auto& b) {
                 write_at<std::uint64_t>(b, kOffFileBytes, 1u << 20);
               })),
               ArtifactError);
  // Section-count overflow bait.
  EXPECT_THROW(Artifact::from_memory(mutated([](auto& b) {
                 write_at<std::uint64_t>(b, kOffNSections,
                                         ~std::uint64_t{0});
               })),
               ArtifactError);
  // Table pushed out of bounds.
  EXPECT_THROW(Artifact::from_memory(mutated([&](auto& b) {
                 write_at<std::uint64_t>(b, kOffTableOffset, bytes.size());
               })),
               ArtifactError);
  // Wrong content hash.
  EXPECT_THROW(Artifact::from_memory(mutated([](auto& b) {
                 write_at<std::uint64_t>(b, kOffContentHash, 0xdeadbeef);
               })),
               ArtifactError);
}

TEST(Artifact, PayloadFlipTripsTheContentHash) {
  std::vector<std::byte> bytes = pack_artifact(make_instance());
  const std::size_t entry = find_entry(bytes, ArtifactSection::kCsrOffsets);
  ASSERT_NE(entry, std::string::npos);
  const auto payload = read_at<std::uint64_t>(bytes, entry + 8);
  bytes[payload] ^= std::byte{0x01};
  EXPECT_THROW(Artifact::from_memory(std::move(bytes)), ArtifactError);
}

TEST(Artifact, CyclicLevelsAreRejectedEvenWithAValidHash) {
  // Zero the whole level array (so no edge strictly increases level) and
  // repair the content hash: the structural acyclicity check alone must
  // reject the file — the schedulers' termination depends on it.
  const SweepInstance instance = make_instance();
  ASSERT_GT(instance.total_edges(), 0u);
  std::vector<std::byte> bytes = pack_artifact(instance);
  const std::size_t entry = find_entry(bytes, ArtifactSection::kLevel);
  ASSERT_NE(entry, std::string::npos);
  const auto payload = read_at<std::uint64_t>(bytes, entry + 8);
  const auto size = read_at<std::uint64_t>(bytes, entry + 16);
  std::memset(bytes.data() + payload, 0, size);
  repair_hash(bytes);
  try {
    Artifact::from_memory(std::move(bytes));
    FAIL() << "cyclic level array accepted";
  } catch (const ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("level"), std::string::npos);
  }
}

TEST(Artifact, DuplicateSectionIdsAreRejected) {
  std::vector<std::byte> bytes = pack_artifact(make_instance());
  const std::size_t a = find_entry(bytes, ArtifactSection::kIndegree);
  const std::size_t b = find_entry(bytes, ArtifactSection::kLevel);
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  // Only the id changes; payload spans (and thus the hash) are untouched.
  write_at(bytes, b, read_at<std::uint32_t>(bytes, a));
  EXPECT_THROW(Artifact::from_memory(std::move(bytes)), ArtifactError);
}

TEST(Artifact, MissingRequiredSectionIsRejected) {
  std::vector<std::byte> bytes = pack_artifact(make_instance());
  const std::size_t entry = find_entry(bytes, ArtifactSection::kCell);
  ASSERT_NE(entry, std::string::npos);
  // Relabel the cell section with an unknown id: the loader must skip it
  // (forward compatibility) and then fail on the missing required section.
  write_at<std::uint32_t>(bytes, entry, 4040);
  try {
    Artifact::from_memory(std::move(bytes));
    FAIL() << "missing cell section accepted";
  } catch (const ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("missing section"),
              std::string::npos);
  }
}

TEST(Artifact, MapFileOfMissingPathThrows) {
  EXPECT_THROW(Artifact::map_file("/nonexistent/definitely/not.sweepart"),
               std::runtime_error);
}

}  // namespace
}  // namespace sweep::dag
