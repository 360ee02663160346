// artmt_trace -- execute an ActiveRMT program on a fresh modeled switch
// and print a per-stage execution trace (the debugger the paper's
// ecosystem lacks).
//
// The tool admits the program as an inelastic service with one block per
// memory access, synthesizes the compact mutant, and runs one capsule.
//
// Usage:
//   artmt_trace [options] [file]      (reads stdin when no file given)
//     --args a,b,c,d    argument-header words (decimal or 0x hex)
//     --elastic         request an elastic allocation instead
//     --json            emit trace JSON-lines on stdout (the schema
//                       span dumps use, so debugger and simulator output
//                       diff line by line)
//
// Example:
//   echo 'MAR_LOAD $0
//         MEM_INCREMENT
//         MBR_STORE $1
//         RTS
//         RETURN' | ./build/tools/artmt_trace --args 0,0,0,0
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "active/assembler.hpp"
#include "cli.hpp"
#include "client/compiler.hpp"
#include "controller/controller.hpp"
#include "telemetry/trace.hpp"

using namespace artmt;

namespace {

const char* verdict_name(runtime::Verdict verdict) {
  switch (verdict) {
    case runtime::Verdict::kForward:
      return "FORWARD";
    case runtime::Verdict::kReturnToSender:
      return "RETURN-TO-SENDER";
    case runtime::Verdict::kDrop:
      return "DROP";
  }
  return "?";
}

const char* fault_name(runtime::Fault fault) {
  switch (fault) {
    case runtime::Fault::kNone:
      return "none";
    case runtime::Fault::kExplicitDrop:
      return "explicit DROP";
    case runtime::Fault::kProtectionViolation:
      return "memory protection violation";
    case runtime::Fault::kNoAllocation:
      return "no allocation in stage";
    case runtime::Fault::kRecircLimit:
      return "recirculation limit";
    case runtime::Fault::kRecircBudget:
      return "recirculation budget";
    case runtime::Fault::kPrivilege:
      return "privilege violation";
    default:
      return "other";
  }
}

}  // namespace

int main(int argc, char** argv) {
  packet::ArgumentHeader args;
  bool elastic = false;
  bool json = false;
  const char* path = nullptr;
  const auto usage = [] {
    std::fprintf(
        stderr,
        "usage: artmt_trace [--args a,b,c,d] [--elastic] [--json] [file]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--args") == 0 && i + 1 < argc) {
      std::stringstream ss(argv[++i]);
      std::string token;
      for (auto& word : args.args) {
        if (!std::getline(ss, token, ',')) break;
        // Each word must be a whole number that fits 32 bits.
        const std::optional<u32> value = cli::parse_u32(token.c_str());
        if (!value) return usage();
        word = *value;
      }
    } else if (std::strcmp(argv[i], "--elastic") == 0) {
      elastic = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      path = argv[i];
    }
  }

  std::string text;
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "artmt_trace: cannot open %s\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  }

  client::ServiceSpec spec;
  try {
    spec.program = active::assemble(text);
  } catch (const CompileError& error) {
    std::fprintf(stderr, "artmt_trace: %s\n", error.what());
    return 1;
  }
  const auto analysis = active::analyze(spec.program);
  spec.demands.assign(analysis.access_positions.size(), 1);
  spec.elastic = elastic;

  rmt::PipelineConfig config;
  rmt::Pipeline pipeline(config);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller controller(pipeline, runtime);

  Fid fid = 0;
  active::Program to_run = spec.program;
  if (!analysis.access_positions.empty()) {
    const auto admitted = controller.admit(client::build_request(spec));
    if (!admitted.admitted) {
      std::fprintf(stderr, "artmt_trace: admission failed\n");
      return 1;
    }
    fid = admitted.fid;
    const auto synthesized = client::synthesize(
        spec, *controller.mutant_of(fid), controller.response_for(fid),
        config.logical_stages);
    to_run = synthesized.program;
    if (!json) {
      std::printf("allocated fid=%u; per-access regions:\n", fid);
      for (std::size_t i = 0; i < synthesized.access_base.size(); ++i) {
        std::printf("  access %zu -> stage %u, words [%u, %u)\n", i,
                    (*controller.mutant_of(fid))[i] % config.logical_stages,
                    synthesized.access_base[i],
                    synthesized.access_base[i] + synthesized.access_words[i]);
      }
    }
    // Direct-addressed programs expect args[0] to be a physical address;
    // default it into the first region when the caller left it at 0.
    if (args.args[0] == 0) args.args[0] = synthesized.access_base[0];
  }

  // JSON mode: the same schema (and the same writer) as span dumps, one
  // object per consumed stage.
  if (json) {
    runtime.set_trace([fid](const runtime::TraceEvent& event) {
      telemetry::write_trace_line(std::cout, 0, "runtime", "stage", fid,
                                  {{"index", event.index},
                                   {"stage", event.logical_stage},
                                   {"pass", event.pass},
                                   {"op", active::mnemonic(event.op)},
                                   {"skipped", event.skipped},
                                   {"mar", event.phv.mar},
                                   {"mbr", event.phv.mbr},
                                   {"mbr2", event.phv.mbr2},
                                   {"complete", event.phv.complete},
                                   {"disabled", event.phv.disabled},
                                   {"rts", event.phv.rts}});
    });
  } else {
    std::printf("\n%-5s %-6s %-5s %-20s %-10s %-10s %-10s flags\n", "idx",
                "stage", "pass", "instruction", "MAR", "MBR", "MBR2");
    runtime.set_trace([](const runtime::TraceEvent& event) {
      std::printf("%-5u %-6u %-5u %-20s %-10u %-10u %-10u %s%s%s\n",
                  event.index, event.logical_stage, event.pass,
                  event.skipped
                      ? "(skipped)"
                      : std::string(active::mnemonic(event.op)).c_str(),
                  event.phv.mar, event.phv.mbr, event.phv.mbr2,
                  event.phv.complete ? "complete " : "",
                  event.phv.disabled ? "disabled " : "",
                  event.phv.rts ? "rts" : "");
    });
  }

  auto capsule = packet::ActivePacket::make_program(fid, args, to_run);
  const auto result = runtime.execute(capsule);

  if (json) {
    telemetry::write_trace_line(
        std::cout, 0, "runtime", "execute_done", fid,
        {{"verdict", verdict_name(result.verdict)},
         {"fault", fault_name(result.fault)},
         {"passes", result.passes},
         {"latency_ns", result.latency},
         {"instructions", result.instructions_executed}});
    return result.verdict == runtime::Verdict::kDrop ? 1 : 0;
  }

  std::printf("\nverdict: %s", verdict_name(result.verdict));
  if (result.fault != runtime::Fault::kNone) {
    std::printf(" (%s)", fault_name(result.fault));
  }
  std::printf("\npasses: %u  latency: %lld ns  instructions: %u\n",
              result.passes, static_cast<long long>(result.latency),
              result.instructions_executed);
  u32 remaining = 0;
  for (const auto& insn : capsule.program->code()) {
    if (!insn.done) ++remaining;
  }
  std::printf("on-wire instructions after shrink: %u of %zu\n", remaining,
              to_run.size());
  std::printf("final args: %u %u %u %u\n", capsule.arguments->args[0],
              capsule.arguments->args[1], capsule.arguments->args[2],
              capsule.arguments->args[3]);
  return 0;
}
