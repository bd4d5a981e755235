#include "streams/bernoulli.h"

#include "streams/chunked.h"

namespace nmc::streams {

std::vector<double> BernoulliStream(int64_t n, double mu, uint64_t seed) {
  BernoulliSource source(n, mu, seed);
  return Materialize(&source);
}

std::vector<double> FractionalIidStream(int64_t n, double mu, double amplitude,
                                        uint64_t seed) {
  FractionalIidSource source(n, mu, amplitude, seed);
  return Materialize(&source);
}

}  // namespace nmc::streams
