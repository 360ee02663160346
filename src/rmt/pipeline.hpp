// The logical pipeline: an ordered set of stages over one configuration.
// The runtime walks this structure one instruction per stage; the
// controller installs/removes per-FID table entries and clears the
// regions that change hands through it.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "rmt/config.hpp"
#include "rmt/stage.hpp"

namespace artmt::rmt {

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] u32 stage_count() const {
    return static_cast<u32>(stages_.size());
  }

  [[nodiscard]] Stage& stage(u32 index);
  [[nodiscard]] const Stage& stage(u32 index) const;

  // True when `stage_index` lies in the ingress half of a pass.
  [[nodiscard]] bool is_ingress(u32 stage_index) const {
    return stage_index % config_.logical_stages < config_.ingress_stages;
  }

  // Total register words across all stages.
  [[nodiscard]] u64 total_words() const;

  // TCAM entries in use across all stages (resource accounting).
  [[nodiscard]] u32 total_tcam_used() const;

 private:
  PipelineConfig config_;
  std::vector<Stage> stages_;
};

}  // namespace artmt::rmt
