// Pump fixture: the sim pump (PumpChunk) and the assignment policy's
// chunk call (Assign, which writes the chunk's same-site runs) are
// hot-path roots. RecordRun's push_back grows a run buffer the file never
// reserves, one call below the pump; NoteChunk's static is one call below
// Assign. TallyRun pushes onto a receiver the file reserves, which is the
// sanctioned pattern and not a finding.
#include <cstddef>
#include <span>
#include <vector>

namespace fix {

struct SiteRun {
  int site;
  long length;
};

struct Ledger {
  std::vector<SiteRun> runs;
  std::vector<long> reserved_runs;
};

void RecordRun(Ledger* ledger, const SiteRun& run) {
  ledger->runs.push_back(run);
}

void TallyRun(Ledger* ledger, long length) {
  ledger->reserved_runs.push_back(length);
}

void NoteChunk(long length) {
  static long chunks = 0;
  chunks += length;
}

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

void InitLedger(Ledger* ledger) { ledger->reserved_runs.reserve(64); }

void PumpChunk(Policy* psi, Ledger* ledger, std::span<const double> chunk,
               std::span<SiteRun> runs) {
  const std::size_t count = psi->Assign(0, chunk, runs);
  for (std::size_t r = 0; r < count; ++r) {
    RecordRun(ledger, runs[r]);
    TallyRun(ledger, runs[r].length);
  }
}

}  // namespace fix
