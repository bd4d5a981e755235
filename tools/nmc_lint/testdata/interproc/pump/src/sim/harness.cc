// Pump fixture: the sim pump (PumpChunk) calls the assignment policy's
// chunk call (Assign), which calls NoteChunk in src/common/notes.cc. The
// mutable static there is the tree's one finding, reported in notes.cc
// where it is declared; nothing in this file is a finding.
#include <cstddef>
#include <span>

namespace fix {

struct SiteRun {
  int site;
  long length;
};

void NoteChunk(long length);

class Policy {
 public:
  std::size_t Assign(long t0, std::span<const double> values,
                     std::span<SiteRun> runs);
};

std::size_t Policy::Assign(long t0, std::span<const double> values,
                           std::span<SiteRun> runs) {
  NoteChunk(static_cast<long>(values.size()));
  runs[0] = SiteRun{static_cast<int>(t0 % 2), static_cast<long>(values.size())};
  return 1;
}

void PumpChunk(Policy* psi, std::span<const double> chunk,
               std::span<SiteRun> runs) {
  psi->Assign(0, chunk, runs);
}

}  // namespace fix
