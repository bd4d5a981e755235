// Interprocedural fixture: a hot-path entry point with one hazard in its
// own body (depth 0) and the rest two-plus calls away, across a TU
// boundary (helpers.cc).
#include <cmath>

namespace fix {

void StageTwo(double value);
void CycleBack(double value);

class Pump {
 public:
  void ProcessUpdate(int site, double value);

 private:
  void StageOne(double value);
  int sites_ = 0;
  double scale_ = 1.0;
};

void Pump::ProcessUpdate(int site, double value) {
  sites_ = site;
  scale_ = std::exp(value);
  StageOne(value);
}

void Pump::StageOne(double value) { StageTwo(value); }

}  // namespace fix
