// make_scenario_matrix — deterministic generator for the curated pipeline
// scenario matrix (data/scenarios/matrix/, docs/SCHEDULING.md).
//
// The matrix samples the composable-pipeline space the policy aliases do
// not reach: queue structures crossed with disciplines, the three backfill
// variants, the placement rules (including load-aware on a heterogeneous
// layout), the co-allocation rules on layouts where they are feasible, and
// Table 3's constant-backlog estimate under backfilling.
// Every entry is a plain scenario file produced by the canonical
// serializer, so `mcsim run` executes it and `mcsim verify
// --scenarios=data/scenarios/matrix data/golden/matrix` seals it.
//
// The table below is code, not input: regenerating the matrix reproduces
// the checked-in files byte-for-byte (validated by
// tests/exp_matrix_corpus_test.cpp), which is what keeps the sealed
// goldens honest.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/scenario_spec.hpp"
#include "policy/pipeline.hpp"
#include "policy/scheduler.hpp"
#include "policy/scheduler_factory.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"

namespace {

using mcsim::BackfillMode;
using mcsim::CoAllocationRule;
using mcsim::PlacementRule;
using mcsim::PolicyKind;
using mcsim::QueueDiscipline;
using mcsim::QueueStructure;
using mcsim::exp::ScenarioSpec;

/// Shared run shape: one modest point run per entry (the constant-backlog
/// entries take Table 3's shape instead). Small enough that the
/// 28-scenario matrix verifies in seconds, long enough that every policy
/// mechanism (backfill windows, queue reordering, whole-job placement)
/// actually fires.
ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.mode = mcsim::exp::RunMode::kPoint;
  spec.utilization = 0.55;
  spec.sim_jobs = 8000;
  spec.seed = 20030815;
  return spec;
}

/// One named matrix entry: the base spec with a mutation applied.
struct MatrixEntry {
  std::string file_stem;
  ScenarioSpec spec;
};

std::vector<MatrixEntry> build_matrix() {
  std::vector<MatrixEntry> matrix;
  const auto add = [&matrix](const std::string& stem, const std::string& name,
                             auto&& mutate) {
    ScenarioSpec spec = base_spec();
    spec.name = name;
    mutate(spec);
    matrix.push_back({stem, std::move(spec)});
  };

  // -- queue structure x discipline --------------------------------------
  add("matrix_gs_fcfs", "matrix GS fcfs baseline", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
  });
  add("matrix_gs_sjf", "matrix GS shortest-job-first", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
    s.discipline = QueueDiscipline::kShortestJobFirst;
  });
  add("matrix_gs_ljf", "matrix GS longest-job-first", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
    s.discipline = QueueDiscipline::kLongestJobFirst;
  });
  add("matrix_ls_sjf", "matrix LS shortest-job-first local queues",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kLS;
        s.discipline = QueueDiscipline::kShortestJobFirst;
      });
  add("matrix_ls_largest", "matrix LS largest-first local queues",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kLS;
        s.discipline = QueueDiscipline::kLargestFirst;
      });
  add("matrix_lp_sjf", "matrix LP shortest-job-first local+global",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kLP;
        s.discipline = QueueDiscipline::kShortestJobFirst;
      });

  // -- backfill (single-global-queue structures only) --------------------
  add("matrix_gs_bf_aggressive", "matrix GS aggressive backfilling",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.backfill = BackfillMode::kAggressive;
      });
  add("matrix_gs_bf_easy", "matrix GS EASY backfilling", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
    s.backfill = BackfillMode::kEasy;
  });
  add("matrix_gs_bf_conservative", "matrix GS conservative backfilling",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.backfill = BackfillMode::kConservative;
      });
  add("matrix_sc_bf_conservative",
      "matrix SC conservative backfilling on 1x128", [](ScenarioSpec& s) {
        s.policy = PolicyKind::kSC;
        s.backfill = BackfillMode::kConservative;
      });

  // -- placement ---------------------------------------------------------
  add("matrix_gs_ff", "matrix GS ordered first-fit placement",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.placement = PlacementRule::kFirstFit;
      });
  add("matrix_gs_bfit", "matrix GS best-fit placement", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
    s.placement = PlacementRule::kBestFit;
  });
  // Load-aware only separates from worst-fit on heterogeneous capacities
  // (idle fraction vs absolute idle), so the LA/WF pair shares a skewed
  // layout with the DAS total of 128 processors. The das-s-64 size model
  // keeps the largest split component at 16 (validate()'s split-feasibility
  // rule: das-s-128 would split 128 into 32+32+32+32, which the
  // 16-processor clusters can never hold), and the lighter load keeps the
  // skewed layout in the stable regime.
  add("matrix_gs_la_hetero", "matrix GS load-aware placement on 64/32/16/16",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.placement = PlacementRule::kLoadAware;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 32, 16, 16};
        s.utilization = 0.40;
      });
  add("matrix_gs_wf_hetero", "matrix GS worst-fit placement on 64/32/16/16",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.placement = PlacementRule::kWorstFit;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 32, 16, 16};
        s.utilization = 0.40;
      });

  // -- co-allocation rules -----------------------------------------------
  // Restricted rules force large jobs whole onto one cluster, so these run
  // on layouts whose biggest cluster holds the maximal total job size
  // (validate() rejects infeasible combinations).
  add("matrix_gs_noco", "matrix GS no co-allocation on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation = CoAllocationRule{CoAllocationRule::Kind::kLocalOnly, 0};
      });
  add("matrix_ls_noco", "matrix LS no co-allocation on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kLS;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation = CoAllocationRule{CoAllocationRule::Kind::kLocalOnly, 0};
      });
  add("matrix_lp_noco", "matrix LP no co-allocation on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kLP;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation = CoAllocationRule{CoAllocationRule::Kind::kLocalOnly, 0};
      });
  add("matrix_gs_limit1", "matrix GS component limit 1 on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation =
            CoAllocationRule{CoAllocationRule::Kind::kComponentLimit, 1};
      });
  add("matrix_gs_limit2", "matrix GS component limit 2 on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation =
            CoAllocationRule{CoAllocationRule::Kind::kComponentLimit, 2};
      });

  // -- combined compositions ---------------------------------------------
  add("matrix_gs_sjf_easy", "matrix GS SJF with EASY backfilling",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.discipline = QueueDiscipline::kShortestJobFirst;
        s.backfill = BackfillMode::kEasy;
      });
  add("matrix_gs_la_conservative",
      "matrix GS load-aware with conservative backfilling on 64/32/16/16",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.placement = PlacementRule::kLoadAware;
        s.backfill = BackfillMode::kConservative;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 32, 16, 16};
        s.utilization = 0.40;
      });
  add("matrix_ls_sjf_noco", "matrix LS SJF without co-allocation on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kLS;
        s.discipline = QueueDiscipline::kShortestJobFirst;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation = CoAllocationRule{CoAllocationRule::Kind::kLocalOnly, 0};
      });
  add("matrix_sc_sjf_aggressive",
      "matrix SC SJF with aggressive backfilling on 1x128",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kSC;
        s.discipline = QueueDiscipline::kShortestJobFirst;
        s.backfill = BackfillMode::kAggressive;
      });
  add("matrix_gs_ff_limit2", "matrix GS first-fit with component limit 2 on 4x64",
      [](ScenarioSpec& s) {
        s.policy = PolicyKind::kGS;
        s.placement = PlacementRule::kFirstFit;
        s.size_model = "das-s-64";
        s.cluster_sizes = {64, 64, 64, 64};
        s.coallocation =
            CoAllocationRule{CoAllocationRule::Kind::kComponentLimit, 2};
      });

  // -- request types -----------------------------------------------------
  // The paper's study (and every other entry) uses unordered requests; the
  // ordered and flexible variants of refs [6,7] take their own generator
  // and placement paths, so each gets a pin of its own.
  add("matrix_gs_ordered", "matrix GS ordered requests", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
    s.request_type = mcsim::RequestType::kOrdered;
    s.utilization = 0.45;
    s.sim_jobs = 5000;
  });
  add("matrix_gs_flexible", "matrix GS flexible requests", [](ScenarioSpec& s) {
    s.policy = PolicyKind::kGS;
    s.request_type = mcsim::RequestType::kFlexible;
    s.sim_jobs = 5000;
  });

  // -- constant backlog --------------------------------------------------
  // Table 3's maximal-utilization estimate with a backfilling stage, in
  // the sealed table3_gs_limit16_saturation run shape.
  const auto table3 = [](ScenarioSpec& s, BackfillMode backfill) {
    s.policy = PolicyKind::kGS;
    s.backfill = backfill;
    s.mode = mcsim::exp::RunMode::kSaturation;
    s.saturation_completions = 40000;
    s.saturation_backlog = 200;
    s.seed = 20030622;
  };
  add("matrix_gs_easy_saturation",
      "matrix GS EASY backfilling maximal utilization (constant backlog)",
      [&table3](ScenarioSpec& s) { table3(s, BackfillMode::kEasy); });
  add("matrix_gs_conservative_saturation",
      "matrix GS conservative backfilling maximal utilization (constant backlog)",
      [&table3](ScenarioSpec& s) { table3(s, BackfillMode::kConservative); });

  return matrix;
}

}  // namespace

int main(int argc, char** argv) {
  mcsim::CliParser parser(
      "make_scenario_matrix: regenerate the curated pipeline scenario matrix "
      "(docs/SCHEDULING.md)");
  parser.add_option("out", "data/scenarios/matrix",
                    "directory the scenario files are written into");
  parser.add_flag("list", "print the matrix entries without writing files");
  if (!parser.parse(argc, argv)) return 0;

  try {
    const std::vector<MatrixEntry> matrix = build_matrix();
    for (const MatrixEntry& entry : matrix) {
      // Fail loudly at generation time, not at verify time.
      mcsim::exp::validate(entry.spec);
    }
    if (parser.get_flag("list")) {
      for (const MatrixEntry& entry : matrix) {
        std::cout << entry.file_stem << ".json\t" << entry.spec.label() << '\n';
      }
      std::cout << matrix.size() << " scenarios\n";
      return 0;
    }

    const std::filesystem::path out_dir = parser.get("out");
    std::filesystem::create_directories(out_dir);
    for (const MatrixEntry& entry : matrix) {
      const std::filesystem::path path = out_dir / (entry.file_stem + ".json");
      std::ofstream out(path);
      MCSIM_REQUIRE(out.good(), "cannot open " + path.string());
      mcsim::exp::write_scenario_file(out, entry.spec);
      MCSIM_REQUIRE(out.good(), "write failed: " + path.string());
    }
    std::cout << "wrote " << matrix.size() << " scenarios to " << out_dir.string()
              << '\n';
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "make_scenario_matrix: " << error.what() << '\n';
    return 1;
  }
}
