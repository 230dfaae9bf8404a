// sweep_pack: build a sweep instance through the normal pipeline (zoo mesh,
// mesh file, or saved instance text) and freeze it as a zero-copy artifact
// for sweep_serve (DESIGN.md §13).
//
// Beyond the task graph itself the packer can embed:
//   - the direction set (geometric builds only),
//   - exact descendant counts (so the daemon serves descendant priorities),
//   - multilevel partitions of the union cell graph for a list of part
//     counts (--partitions 8,16), queryable by index.
//
// The artifact is written to a temp file and renamed into place, so a
// watching sweep_serve can hot-swap to it without ever seeing a half-written
// file.
//
// Examples:
//   sweep_pack --mesh tetonly --scale 0.25 --sn 4 --out tet.sweepart
//   sweep_pack --load-instance inst.txt --partitions 8,16 --out inst.sweepart

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mesh/io.hpp"
#include "mesh/zoo.hpp"
#include "partition/graph.hpp"
#include "partition/multilevel.hpp"
#include "sweep/artifact.hpp"
#include "sweep/instance.hpp"
#include "sweep/instance_io.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"
#include "util/timer.hpp"

namespace {

/// Union cell graph over all directions: one undirected edge per cell pair
/// adjacent in ANY direction DAG (duplicates merged).
sweep::partition::Graph union_cell_graph(const sweep::dag::TaskGraph& graph) {
  using sweep::partition::VertexId;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(graph.n_edges());
  for (std::size_t t = 0; t < graph.n_tasks(); ++t) {
    const VertexId u = graph.cell(t);
    for (const sweep::dag::TaskGraph::Task succ : graph.successors(t)) {
      const VertexId v = graph.cell(succ);
      pairs.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return {graph.n_cells(), pairs};
}

}  // namespace

static int run_main(int argc, char** argv) {
  using namespace sweep;
  util::CliParser cli("sweep_pack",
                      "Pack a sweep instance into a zero-copy artifact for "
                      "sweep_serve");
  cli.add_option("mesh", "tetonly",
                 "zoo mesh: tetonly|well_logging|long|prismtet");
  cli.add_option("load-mesh", "", "load a mesh file instead of the zoo");
  cli.add_option("load-instance", "", "load a saved instance (skips DAG build)");
  cli.add_option("scale", "0.25", "zoo mesh scale (1.0 = paper size)");
  cli.add_option("sn", "4", "S_n quadrature order (k = n(n+2))");
  cli.add_option("seed", "12345", "RNG seed (zoo jitter + partitioner)");
  cli.add_option("out", "instance.sweepart", "artifact output path");
  cli.add_option("partitions", "",
                 "comma list of part counts to precompute, e.g. 8,16");
  cli.add_flag("skip-descendants",
               "do not embed exact descendant counts (smaller artifact; the "
               "daemon then rejects the descendant scheme)");
  if (!cli.parse(argc, argv)) return 1;

  util::Timer timer;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

  // --- Instance (same sources as sweep_cli) -------------------------------
  std::unique_ptr<dag::SweepInstance> instance;
  dag::DirectionSet dirs;
  bool have_dirs = false;
  if (!cli.str("load-instance").empty()) {
    instance = std::make_unique<dag::SweepInstance>(
        dag::load_instance(cli.str("load-instance")));
  } else {
    const mesh::UnstructuredMesh mesh =
        cli.str("load-mesh").empty()
            ? mesh::MeshZoo::by_name(cli.str("mesh"), cli.real("scale"), seed)
            : mesh::load_mesh(cli.str("load-mesh"));
    dirs = dag::level_symmetric(static_cast<std::size_t>(cli.integer("sn")));
    have_dirs = true;
    instance = std::make_unique<dag::SweepInstance>(
        dag::build_instance(mesh, dirs));
  }
  std::printf("instance '%s': %zu cells, %zu directions, %zu edges (%.2fs)\n",
              instance->name().c_str(), instance->n_cells(),
              instance->n_directions(), instance->total_edges(),
              timer.seconds());

  // --- Partitions ---------------------------------------------------------
  std::vector<dag::ArtifactPartition> partitions;
  const std::vector<std::int64_t> part_counts = cli.int_list("partitions");
  if (!part_counts.empty()) {
    const partition::Graph cell_graph = union_cell_graph(*instance);
    for (std::int64_t parts : part_counts) {
      if (parts <= 0) {
        std::fprintf(stderr, "--partitions entries must be positive\n");
        return 1;
      }
      partition::MultilevelOptions options;
      options.n_parts = static_cast<std::size_t>(parts);
      options.seed = seed;
      partition::Partition part =
          partition::multilevel_partition(cell_graph, options);
      partitions.push_back({static_cast<std::uint64_t>(parts),
                            std::move(part)});
      std::printf("partitioned into %lld parts (%.2fs)\n",
                  static_cast<long long>(parts), timer.seconds());
    }
  }

  // --- Pack ---------------------------------------------------------------
  dag::ArtifactWriteOptions options;
  if (have_dirs) options.directions = &dirs;
  if (!partitions.empty()) options.partitions = &partitions;
  options.include_descendants = !cli.flag("skip-descendants");

  const std::string out = cli.str("out");
  const std::string tmp = out + ".tmp";
  dag::save_artifact(*instance, tmp, options);
  if (std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s -> %s\n", tmp.c_str(), out.c_str());
    return 1;
  }

  // Reload to report the authoritative numbers (and prove the file loads).
  const auto artifact = dag::Artifact::map_file(out);
  std::printf(
      "packed %s: %zu bytes, hash %016llx, %zu partitions, descendants=%s "
      "(%.2fs)\n",
      out.c_str(), artifact->file_bytes(),
      static_cast<unsigned long long>(artifact->content_hash()),
      artifact->n_partitions(), artifact->has_descendants() ? "yes" : "no",
      timer.seconds());
  return 0;
}

int main(int argc, char** argv) {
  return sweep::util::guarded_main([&] { return run_main(argc, argv); });
}
