#include "streams/adversarial.h"

#include "common/check.h"
#include "common/huge_pages.h"

namespace nmc::streams {

std::vector<double> AlternatingStream(int64_t n) {
  NMC_CHECK_GE(n, 0);
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.resize(static_cast<size_t>(n));
  for (size_t t = 0; t < values.size(); ++t) {
    values[t] = (t % 2 == 0) ? 1.0 : -1.0;
  }
  return values;
}

std::vector<double> SawtoothStream(int64_t n, int64_t peak) {
  NMC_CHECK_GE(n, 0);
  NMC_CHECK_GE(peak, 1);
  std::vector<double> values =
      common::ReserveStreamBuffer<double>(static_cast<size_t>(n));
  values.resize(static_cast<size_t>(n));
  int64_t level = 0;
  int direction = 1;
  for (double& value : values) {
    value = static_cast<double>(direction);
    level += direction;
    if (level >= peak) direction = -1;
    if (level <= -peak) direction = 1;
  }
  return values;
}

}  // namespace nmc::streams
