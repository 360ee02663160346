// Structural parameters of the modeled PISA/RMT device. Defaults mirror the
// paper's testbed: a Tofino with 20 logical stages (10 ingress + 10 egress),
// ~94K words of register memory per stage, 1-KB allocation blocks, and RTS
// only effective at ingress (Sections 3.1, 4.1, 6).
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

namespace artmt::rmt {

struct PipelineConfig {
  static constexpr u32 kMaxRecirculations = 8;  // safety cap on passes
  // Latency model: the paper measures ~0.5 us added per pipeline engaged
  // (Fig. 8b: 10, 20, 30 instructions sit 0.5 us apart); one "pipeline"
  // is an ingress or egress half (ingress_stages logical stages).
  static constexpr SimTime kPassLatency = 500;  // ns per pipeline engaged

  u32 logical_stages = 20;
  u32 ingress_stages = 10;  // RTS/port changes must happen here (or recirc)
  u32 words_per_stage = 94'208;  // 32-bit registers per stage pool
  u32 block_words = 256;         // 1-KB allocation granularity (Section 6)
  u32 tcam_entries_per_stage = 512;  // range-match capacity (protection)

  [[nodiscard]] u32 blocks_per_stage() const {
    return words_per_stage / block_words;
  }

  void validate() const {
    if (logical_stages == 0 || ingress_stages == 0 ||
        ingress_stages > logical_stages) {
      throw UsageError("PipelineConfig: bad stage counts");
    }
    if (block_words == 0 || words_per_stage < block_words) {
      throw UsageError("PipelineConfig: bad memory geometry");
    }
  }
};

}  // namespace artmt::rmt
