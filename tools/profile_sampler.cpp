// profile_sampler: a sampling profiler for the engine, for hosts without
// `perf`. It runs a scenario's points serially in its own process under
// ITIMER_PROF and records the program counter each SIGPROF interrupted;
// tools/rank_profile.py then resolves those PCs against `nm` and prints
// self time by function (docs/PERFORMANCE.md shows the rankings it made).
//
//   profile_sampler SCENARIO.json --out=PCS [--from=U --to=U --step=S]
//       [--sim-jobs=N] [--seeds=K] [--seconds=S]
//   python3 tools/rank_profile.py PCS [--top=25]
//
// A sweep scenario runs its grid (or --from/--to/--step); any other mode
// runs its one utilization. Each point runs once per seed (the spec's seed
// and the K-1 after it), one after another on this thread, and the whole
// pass repeats until --seconds of CPU time have been sampled. Only this
// process's CPU time is counted (ITIMER_PROF), so a busy host delays the
// samples but does not skew them. The timer asks for a sample every
// 200 µs; the kernel delivers them at its tick (every 4 ms at 250 Hz).
//
// Output: two header lines starting with '#' (totals, then "# program"
// and this executable's path), then one line per distinct PC,
//   <samples> <offset, hex> <module path>
// where the offset is the PC minus the module's load bias: the address
// `nm` prints for the symbol in that module (PIE or not). Functions the
// compiler inlined count toward their caller, as in any PC sampler.
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/scenario_spec.hpp"
#include "util/cli.hpp"

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 18;
constexpr long kIntervalUs = 200;

// Written only by the signal handler while the timer runs.
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_samples{0};

std::uintptr_t interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int /*signal*/, siginfo_t* /*info*/, void* context) {
  const std::size_t i = g_samples.load(std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  g_pcs[i] = interrupted_pc(context);
  g_samples.store(i + 1, std::memory_order_relaxed);
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string program_path() {
  char buffer[4096];
  const ssize_t n = readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  return n > 0 ? std::string(buffer, static_cast<std::size_t>(n)) : std::string();
}

/// An executable mapping: [begin, end) at load bias `bias`, from `path`.
struct Module {
  std::uintptr_t begin;
  std::uintptr_t end;
  std::uintptr_t bias;
  std::string path;
};

int collect_module(dl_phdr_info* info, std::size_t /*size*/, void* out) {
  auto& modules = *static_cast<std::vector<Module>*>(out);
  std::string path = info->dlpi_name != nullptr ? info->dlpi_name : "";
  // The first entry is the program itself, which dl_iterate_phdr names "".
  if (path.empty() && modules.empty()) path = program_path();
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& segment = info->dlpi_phdr[i];
    if (segment.p_type != PT_LOAD || (segment.p_flags & PF_X) == 0) continue;
    const std::uintptr_t begin = info->dlpi_addr + segment.p_vaddr;
    modules.push_back(Module{begin, begin + segment.p_memsz, info->dlpi_addr,
                             path.empty() ? "[unnamed]" : path});
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mcsim::CliParser parser(
      "profile_sampler: run a scenario's points serially under ITIMER_PROF and "
      "write the sampled program counters (rank them with tools/rank_profile.py)");
  parser.add_option("out", "profile.pcs", "output file of sampled PCs");
  parser.add_option("from", "", "first utilization of a sweep grid (default: the spec's)");
  parser.add_option("to", "", "last utilization of a sweep grid (default: the spec's)");
  parser.add_option("step", "", "sweep grid step (default: the spec's)");
  parser.add_option("sim-jobs", "0", "arrivals per run (0: the spec's)");
  parser.add_option("seeds", "1", "seeds per point: the spec's seed and the ones after it");
  parser.add_option("seconds", "0", "repeat the passes until this much CPU time is sampled");
  try {
    if (!parser.parse(argc, argv)) return mcsim::kExitOk;
    if (parser.positional().size() != 1) {
      throw mcsim::CliUsageError("profile_sampler: expected one SCENARIO.json");
    }
#if !defined(__x86_64__) && !defined(__aarch64__)
    std::cerr << "profile_sampler: no PC accessor for this architecture\n";
    return mcsim::kExitRuntime;
#endif
    mcsim::exp::ScenarioSpec spec = mcsim::exp::load_scenario(parser.positional().front());
    if (!parser.get("from").empty()) spec.sweep_from = parser.get_double("from");
    if (!parser.get("to").empty()) spec.sweep_to = parser.get_double("to");
    if (!parser.get("step").empty()) spec.sweep_step = parser.get_double("step");
    if (!parser.get("from").empty() || !parser.get("to").empty() ||
        !parser.get("step").empty()) {
      spec.utilization_grid.clear();
    }
    if (parser.get_uint("sim-jobs") > 0) spec.sim_jobs = parser.get_uint("sim-jobs");
    const std::uint64_t seeds = std::max<std::uint64_t>(1, parser.get_uint("seeds"));
    const double min_seconds = parser.get_double("seconds");

    const std::vector<double> grid = spec.mode == mcsim::exp::RunMode::kSweep
                                         ? spec.sweep_grid()
                                         : std::vector<double>{spec.utilization};
    // Configs are built before the timer starts: the sampler profiles
    // runs, not the trace scan or config construction.
    const mcsim::exp::TraceResolver resolver = mcsim::exp::resolve_trace_once(spec);
    std::vector<mcsim::SimulationConfig> configs;
    const std::uint64_t first_seed = spec.seed;
    for (double utilization : grid) {
      for (std::uint64_t k = 0; k < seeds; ++k) {
        spec.seed = first_seed + k;
        configs.push_back(mcsim::exp::to_simulation_config(spec, utilization, resolver));
      }
    }

    struct sigaction action{};
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);

    const double start = cpu_seconds();
    std::uint64_t runs = 0;
    std::uint64_t events = 0;
    set_timer(kIntervalUs);
    do {
      for (const mcsim::SimulationConfig& config : configs) {
        events += mcsim::run_simulation(config).events_executed;
        ++runs;
      }
    } while (cpu_seconds() - start < min_seconds);
    set_timer(0);
    const double elapsed = cpu_seconds() - start;
    signal(SIGPROF, SIG_IGN);

    std::vector<Module> modules;
    dl_iterate_phdr(collect_module, &modules);
    const std::size_t samples = std::min(g_samples.load(), kMaxSamples);
    std::map<std::pair<std::string, std::uintptr_t>, std::uint64_t> counts;
    for (std::size_t i = 0; i < samples; ++i) {
      const std::uintptr_t pc = g_pcs[i];
      const auto module = std::find_if(modules.begin(), modules.end(), [&](const Module& m) {
        return pc >= m.begin && pc < m.end;
      });
      if (module == modules.end()) {
        ++counts[{"[unknown]", pc}];
      } else {
        ++counts[{module->path, pc - module->bias}];
      }
    }

    std::ofstream out(parser.get("out"));
    if (!out) throw std::runtime_error("cannot write " + parser.get("out"));
    out << "# profile_sampler " << samples << " samples, " << runs << " runs, " << events
        << " events, " << elapsed << " cpu seconds\n"
        << "# program " << program_path() << '\n';
    for (const auto& [key, count] : counts) {
      char offset[32];
      std::snprintf(offset, sizeof offset, "0x%llx",
                    static_cast<unsigned long long>(key.second));
      out << count << ' ' << offset << ' ' << key.first << '\n';
    }
    std::cout << "profile_sampler: " << samples << " samples over " << runs << " runs ("
              << elapsed << " cpu s) -> " << parser.get("out") << '\n';
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return mcsim::cli_exit_code(error);
  }
  return mcsim::kExitOk;
}
