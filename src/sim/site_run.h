#pragma once

#include <cstdint>

namespace nmc::sim {

/// A stretch of consecutive updates that psi sends to one site: what
/// AssignmentPolicy::Assign emits and Protocol::ProcessChunk consumes.
struct SiteRun {
  int site = 0;        ///< in [0, k)
  int64_t length = 0;  ///< >= 1
};

}  // namespace nmc::sim
