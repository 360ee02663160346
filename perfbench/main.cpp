// perfbench -- the layered benchmark's runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the workload (a fresh setup each time, so every
// repetition of a seed starts from the same state) until S seconds have
// passed, and reports the end-to-end metrics: host-time ones as medians
// over the repetitions after the first (a warm-up), each scaled to reference-host speed by the
// reference kernel run around it (reference.hpp); virtual-time ones from
// the simulation (which must be bit-identical across repetitions; any
// drift fails the run).
// --trace 1 alternates untraced repetitions with telemetry recording on
// and off for S seconds, then runs one traced repetition and replays each
// layer on what it recorded, reporting the per-layer metrics.
//
// Output: one line {"report": ...} with everything behind the numbers
// (host fingerprint, sample counts, percentile ranks, ratio bases, the
// digest), then the result line {"correct", "attempted", "failed",
// "metrics"} last.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.hpp"
#include "reference.hpp"
#include "scenario.hpp"
#include "stats.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

// Seeds named for later performance claims: tune on the development seed,
// confirm on the held-out one.
constexpr u64 kDevelopmentSeed = 1;
constexpr u64 kHeldOutSeed = 2;

struct Args {
  std::string workload;
  u64 seed = kDevelopmentSeed;
  double seconds = 10.0;
  int trace = 0;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12];
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// The reference kernel's time on the host the bounds were tuned on
// (4-core Xeon, quiet): normalized host times read as seconds there.
constexpr double kReferenceKernelS = 0.030;

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double elapsed_s(u64 since_ns) {
  return static_cast<double>(now_ns() - since_ns) / 1e9;
}

// Everything that must repeat exactly for one seed.
struct VirtualSignature {
  u64 digest = 0;
  u64 attempted = 0, resolved = 0, hits = 0, granted = 0;
  bool operator==(const VirtualSignature&) const = default;
};

VirtualSignature signature(const Outcome& o) {
  return {o.digest, o.attempted, o.resolved, o.cache_hits, o.admit_granted};
}

// Trajectory j of a run simulates with this seed (trajectory 0 with the
// run's own seed).
u64 trajectory_seed(u64 seed, u32 j) {
  return j == 0 ? seed : artmt::Rng::substream(seed, 0x5EED + j).next_u64();
}

// Adds trajectory outcome `o` into the pooled outcome `p`.
void pool_into(Outcome& p, const Outcome& o) {
  p.setup_s += o.setup_s;
  p.wall_s += o.wall_s;
  p.trajectory_wall_s.push_back(o.wall_s);
  p.phase.capsules += o.phase.capsules;
  p.phase.events += o.phase.events;
  p.phase.pool_ops += o.phase.pool_ops;
  p.phase.admissions += o.phase.admissions;
  p.phase.releases += o.phase.releases;
  p.phase.heap_allocs += o.phase.heap_allocs;
  p.phase.transit += o.phase.transit;
  p.phase.health_acks += o.phase.health_acks;
  p.phase.frames += o.phase.frames;
  p.rtt_us.insert(p.rtt_us.end(), o.rtt_us.begin(), o.rtt_us.end());
  p.admit_ms.insert(p.admit_ms.end(), o.admit_ms.begin(), o.admit_ms.end());
  p.attempted += o.attempted;
  p.resolved += o.resolved;
  p.unresolved += o.unresolved;
  p.duplicates += o.duplicates;
  p.strays += o.strays;
  p.bad_values += o.bad_values;
  p.give_ups += o.give_ups;
  p.retransmits += o.retransmits;
  p.resends += o.resends;
  p.cache_gets += o.cache_gets;
  p.cache_hits += o.cache_hits;
  p.admit_requested += o.admit_requested;
  p.admit_granted += o.admit_granted;
  p.trajectory_downtime_ms.push_back(o.downtime_max_ms);
  p.evacuations += o.evacuations;
  p.state_loss_services += o.state_loss_services;
  for (u32 k = 0; k < 3; ++k) {
    p.server_replies[k] += o.server_replies[k];
    p.unresolved_by_kind[k] += o.unresolved_by_kind[k];
  }
  Digest d;
  d.mix(p.digest);
  d.mix(o.digest);
  p.digest = d.h;
  if (p.check_error.empty()) p.check_error = o.check_error;
}

// One repetition: every trajectory of the run, each a fresh workload
// instance (setup, then the measured phase), pooled into one outcome.
// Trajectory j simulates with trajectory_seed(seed, j).
Outcome run_rep(const Args& args, bool telemetry_on) {
  artmt::telemetry::set_enabled(telemetry_on);
  Outcome pooled;
  const u32 k = make_workload(args.workload, {args.seed})->trajectories();
  for (u32 j = 0; j < k; ++j) {
    auto w = make_workload(args.workload, {trajectory_seed(args.seed, j)});
    const u64 t0 = now_ns();
    w->setup();
    const u64 t1 = now_ns();
    pooled.reference_s.push_back(reference_kernel_s());
    const u64 t2 = now_ns();
    w->measure();
    const u64 t3 = now_ns();
    pooled.reference_s.push_back(reference_kernel_s());
    Outcome out = w->collect();
    out.setup_s = static_cast<double>(t1 - t0) / 1e9;
    out.wall_s = static_cast<double>(t3 - t2) / 1e9;
    pool_into(pooled, out);
  }
  artmt::telemetry::set_enabled(true);
  return pooled;
}

struct Result {
  bool correct = true;
  std::string error;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
};

u64 failures(const Outcome& o) { return o.unresolved + o.give_ups; }

// Repetitions of one run. The first keeps its virtual-time results; every
// later one must reproduce them exactly.
struct Runs {
  void add(Result& r, Outcome o) {
    if (r.correct && !o.check_error.empty()) {
      r.correct = false;
      r.error = o.check_error;
    }
    if (reps.empty()) {
      first = o;
    } else if (r.correct && !(signature(first) == signature(o))) {
      r.correct = false;
      r.error = "virtual-time results differ between repetitions of one seed";
    }
    r.attempted += o.attempted;
    r.failed += failures(o);
    o.rtt_us.clear();
    o.admit_ms.clear();
    reps.push_back(std::move(o));
  }

  Outcome first;
  std::vector<Outcome> reps;
};

void print_report(const Args& args, const Result& r, const Runs& runs,
                  const std::string& extra) {
  const Outcome& o = runs.first;
  const Summary rtt = summarize(o.rtt_us);
  const Summary admit = summarize(o.admit_ms);
  std::string s = "{\"report\": {";
  s += "\"workload\": \"" + args.workload + "\", \"seed\": " +
       std::to_string(args.seed) + ", \"seed_role\": \"" +
       (args.seed == kDevelopmentSeed ? "development"
        : args.seed == kHeldOutSeed   ? "held-out"
                                      : "other") +
       "\", \"trace\": " + std::to_string(args.trace) +
       ", \"trajectories\": " + std::to_string(o.trajectory_wall_s.size());
  s += ", \"fingerprint\": {\"cores\": " +
       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"cpu\": \"" +
       json_escape(cpu_model()) + "\", \"build_type\": \"" +
       PERFBENCH_BUILD_TYPE + "\", \"compiler\": \"" +
       json_escape(PERFBENCH_COMPILER) + "\"}";
  s += ", \"repetitions\": " + std::to_string(runs.reps.size());
  std::string walls, setups;
  for (const Outcome& rep : runs.reps) {
    walls += (walls.empty() ? "" : ", ") + num(rep.wall_s);
    setups += (setups.empty() ? "" : ", ") + num(rep.setup_s);
  }
  std::string refs;
  for (const Outcome& rep : runs.reps) {
    refs += (refs.empty() ? "" : ", ") + num(mean_of(rep.reference_s));
  }
  s += ", \"wall_s\": [" + walls + "], \"setup_s\": [" + setups +
       "], \"reference_s\": [" + refs + "]";
  s += ", \"capsules\": " + std::to_string(o.phase.capsules) +
       ", \"events\": " + std::to_string(o.phase.events) +
       ", \"frames\": " + std::to_string(o.phase.frames) +
       ", \"transit\": " + std::to_string(o.phase.transit);
  s += ", \"rtt_us\": {\"n\": " + std::to_string(rtt.n) +
       ", \"p50\": " + num(rtt.median) + ", \"tail_pct\": " +
       num(rtt.tail_pct) + ", \"tail\": " + num(rtt.tail) + "}";
  s += ", \"admit_ms\": {\"n\": " + std::to_string(admit.n) +
       ", \"p50\": " + num(admit.median) + ", \"tail_pct\": " +
       num(admit.tail_pct) + ", \"tail\": " + num(admit.tail) + "}";
  s += ", \"hit\": {\"num\": " + std::to_string(o.cache_hits) +
       ", \"base\": " + std::to_string(o.cache_gets) + "}";
  s += ", \"ok\": {\"num\": " + std::to_string(o.attempted - failures(o)) +
       ", \"base\": " + std::to_string(o.attempted) +
       ", \"unresolved\": {\"cache\": " +
       std::to_string(o.unresolved_by_kind[0]) + ", \"monitor\": " +
       std::to_string(o.unresolved_by_kind[1]) + ", \"lb\": " +
       std::to_string(o.unresolved_by_kind[2]) + "}" +
       ", \"give_ups\": " + std::to_string(o.give_ups) +
       ", \"resends\": " + std::to_string(o.resends) + "}";
  s += ", \"admit\": {\"num\": " + std::to_string(o.admit_granted) +
       ", \"base\": " + std::to_string(o.admit_requested) + "}";
  s += ", \"server_replies\": {\"cache\": " +
       std::to_string(o.server_replies[0]) + ", \"monitor\": " +
       std::to_string(o.server_replies[1]) + ", \"lb\": " +
       std::to_string(o.server_replies[2]) + "}";
  s += ", \"evacuations\": " + std::to_string(o.evacuations) +
       ", \"state_loss_services\": " + std::to_string(o.state_loss_services);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(o.digest));
  s += ", \"digest\": \"" + std::string(digest) + "\"";
  s += ", \"error\": \"" + json_escape(r.error) + "\"";
  s += extra;
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_result(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted) +
       ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
         num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

int run_untraced(const Args& args) {
  Result r;
  Runs runs;
  const u64 start = now_ns();
  // Peak memory of one repetition: taken after the first, because the
  // heap's slow growth over later ones depends on how many fit in the run.
  double rss_mb = 0.0;
  while (runs.reps.size() < 4 || elapsed_s(start) < args.seconds) {
    runs.add(r, run_rep(args, true));
    if (runs.reps.size() == 1) rss_mb = peak_rss_mb();
  }
  // Host times at reference-host speed: each repetition is scaled by how
  // long the reference kernel took around it (see reference.hpp). The
  // first repetition warms caches and the allocator and is not timed.
  std::vector<double> wall, setup, rate;
  for (std::size_t i = 1; i < runs.reps.size(); ++i) {
    const Outcome& o = runs.reps[i];
    const double speed = kReferenceKernelS / mean_of(o.reference_s);
    wall.push_back(o.wall_s * speed);
    setup.push_back(o.setup_s * speed);
    rate.push_back(static_cast<double>(o.phase.capsules) / wall.back());
  }
  const Outcome& o = runs.first;
  const Summary rtt = summarize(o.rtt_us);
  if (r.correct && beyond(99.0, rtt.n) < kTailMinBeyond) {
    r.correct = false;
    r.error = "too few resolved requests for a p99";
  }
  std::vector<double> sorted_rtt = o.rtt_us;
  std::sort(sorted_rtt.begin(), sorted_rtt.end());
  const double p99 =
      sorted_rtt.empty() ? 0.0 : sorted_rtt[rank_index(99.0, sorted_rtt.size())];
  const Ratio hit{o.cache_hits, o.cache_gets};
  const Ratio ok{o.attempted - failures(o), o.attempted};
  const Ratio admitted{o.admit_granted, o.admit_requested};
  r.metrics = {
      {"wall_s", median_of(wall), "s"},
      {"capsules_per_s", median_of(rate), "1/s"},
      {"setup_s", median_of(setup), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"virt_rtt_p50_us", rtt.median, "us"},
      {"virt_rtt_p99_us", p99, "us"},
      {"hit_ratio", hit.value(), "ratio"},
      {"ok_ratio", ok.value(), "ratio"},
      {"admit_p50_ms", summarize(o.admit_ms).median, "ms"},
      {"admit_ratio", admitted.value(), "ratio"},
      // The longest interruption of a trajectory, median over trajectories.
      {"downtime_max_ms", median_of(o.trajectory_downtime_ms), "ms"},
  };
  print_report(args, r, runs, "");
  print_result(r);
  return 0;
}

int run_traced(const Args& args) {
  Result r;
  Runs runs;
  // Untraced repetitions, alternating telemetry recording on and off.
  std::vector<double> wall_on, wall_off, wall_on_first;
  const u64 start = now_ns();
  for (std::size_t i = 0; i < 4 || elapsed_s(start) < args.seconds; ++i) {
    const bool telemetry_on = i % 2 == 0;
    Outcome o = run_rep(args, telemetry_on);
    (telemetry_on ? wall_on : wall_off).push_back(o.wall_s);
    if (telemetry_on) wall_on_first.push_back(o.trajectory_wall_s.front());
    runs.add(r, std::move(o));
  }
  const Outcome& untraced = runs.first;
  const double k = static_cast<double>(untraced.trajectory_wall_s.size());
  TraceInputs in;
  in.wall_untraced_ns = median_of(wall_on_first) * 1e9;
  in.record_share = 1.0 - median_of(wall_off) / median_of(wall_on);
  in.untraced = untraced.phase;

  // The traced repetition covers the first trajectory; recording keeps
  // about 20k program frames and transmits.
  constexpr double kSamples = 20'000;
  auto w = make_workload(args.workload, {trajectory_seed(args.seed, 0)});
  TransmitRecorder recorder(
      *w, static_cast<u64>(untraced.phase.capsules / k / kSamples) + 1,
      static_cast<u64>(untraced.phase.frames / k / kSamples) + 1);
  w->install_recorder(&recorder);
  w->setup();
  w->set_timers(true);
  recorder.measuring = true;
  const u64 t0 = now_ns();
  w->measure();
  in.wall_traced_ns = static_cast<double>(now_ns() - t0);
  recorder.measuring = false;
  w->set_timers(false);
  const Outcome traced = w->collect();
  r.metrics = analyze(*w, recorder, traced, in);
  if (r.correct && !traced.check_error.empty()) {
    r.correct = false;
    r.error = traced.check_error;
  }
  r.attempted += traced.attempted;
  r.failed += failures(traced);

  std::string extra = ", \"recorded\": {\"program_frames\": " +
                      std::to_string(recorder.program_frames.size()) +
                      ", \"transmits\": " +
                      std::to_string(recorder.transmits.size()) +
                      ", \"control_ops\": " +
                      std::to_string(recorder.control.size()) + "}";
  extra += ", \"wall_traced_s\": " + num(in.wall_traced_ns / 1e9) +
           ", \"wall_telemetry_off_s\": " + num(median_of(wall_off));
  print_report(args, r, runs, extra);
  print_result(r);
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && (args.trace == 0 || args.trace == 1) &&
         args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) ||
      make_workload(args.workload, {args.seed}) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_mix|churn|fabric_failover "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return args.trace == 0 ? run_untraced(args) : run_traced(args);
}
