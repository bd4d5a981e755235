// Fixture for NO_PER_UPDATE_TRANSCENDENTALS. Linted as if at
// src/core/fixture.cc (protocol scope). The call-graph pass scans the
// bodies of the hot-path entry points (OnLocalUpdate / ProcessBatch /
// ConsumeRun / PumpChunk / ...) and of every function they call, and flags
// log/exp/pow calls there; helpers no entry point calls, declarations, and
// look-alike identifiers stay silent.
#include <cmath>

class Site {
 public:
  void OnLocalUpdate(double value) {
    sum_ += value;
    rate_ = std::log1p(-value);  // EXPECT: NO_PER_UPDATE_TRANSCENDENTALS
  }

  long ConsumeRun(long count) {
    const double dom = std::pow(sum_, 0.5);  // EXPECT: NO_PER_UPDATE_TRANSCENDENTALS
    // A justified slow-path evaluation uses the annotation escape:
    // nmc-lint: allow(NO_PER_UPDATE_TRANSCENDENTALS) frozen-rate gap redraw, amortized O(1) per report
    const double gap = std::log(0.5) / dom;
    return count + static_cast<long>(gap);
  }

 private:
  double rate_ = 0.0;
  double sum_ = 0.0;
};

class Protocol {
 public:
  // Declaration only — no body, so not an entry point; the exp() in the
  // helper right after it is outside every entry point's call chain.
  void ProcessUpdate(int site_id, double value);

  double RateHelper(double estimate) const {
    return std::exp(-estimate);  // no entry point calls it: silent
  }

  long ProcessBatch(long count) {
    // Unqualified calls count too (cmath pollutes the global namespace).
    const double boost = exp2(3.0);  // EXPECT: NO_PER_UPDATE_TRANSCENDENTALS
    return count + static_cast<long>(boost);
  }

  long ProcessRun(long count) { return count + offset_; }  // clean body

 private:
  long offset_ = 0;
};

// Near-misses that must NOT fire:
double exp_(double x);                       // trailing underscore: not exp(
double logical(double x) { return x; }       // 'log' inside an identifier
double ReProcessUpdate(double x) {           // name embedded in a longer one
  return std::pow(x, 2.0);                   // ...so this is no entry point
}
const double export_rate = 0.0;              // 'exp' prefix, no call

// The sim pump is an entry point too, though no protocol call: a
// transcendental written directly in its body runs once per chunk.
long PumpChunk(long count) {
  return count + static_cast<long>(std::log(2.0));  // EXPECT: NO_PER_UPDATE_TRANSCENDENTALS
}
