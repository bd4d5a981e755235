#pragma once

#include <cstdint>
#include <vector>

namespace nmc::streams {

/// I.i.d. ±1 updates with drift mu in [-1, 1]: P[X = +1] = (1 + mu)/2,
/// P[X = -1] = (1 - mu)/2, so E[X] = mu. mu = 0 is the driftless random
/// walk of Theorem 3.1/3.2, mu = 1 the monotonic counter of [12].
std::vector<double> BernoulliStream(int64_t n, double mu, uint64_t seed);

/// I.i.d. bounded fractional updates: X = mu + noise, where noise is
/// uniform on [-a, a] with a = min(1 - |mu|, amplitude), clamped so that
/// X stays in [-1, 1]. Exercises the paper's remark that updates need not
/// be in {-1, +1}.
std::vector<double> FractionalIidStream(int64_t n, double mu, double amplitude,
                                        uint64_t seed);

}  // namespace nmc::streams

