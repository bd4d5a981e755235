#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace nmc::common {

void CheckFailed(const CheckSite* site) {
  std::fprintf(stderr, "NMC_CHECK failed at %s:%d: %s\n", site->file,
               site->line, site->text);
  std::abort();
}

}  // namespace nmc::common
