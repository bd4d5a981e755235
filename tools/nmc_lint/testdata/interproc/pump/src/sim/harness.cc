// Pump fixture: the sim pump (PumpChunk) and the assignment policy's
// chunk call (Assign) are hot-path roots. RecordRun's push_back grows a
// vector the file never reserves, one call below the pump; NoteChunk's
// static is one call below Assign. TallyRun pushes onto a receiver the
// file reserves, which is the sanctioned pattern and not a finding.
#include <span>
#include <vector>

namespace fix {

struct Ledger {
  std::vector<long> runs;
  std::vector<long> reserved_runs;
};

void RecordRun(Ledger* ledger, long length) {
  ledger->runs.push_back(length);
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
  void Assign(long t0, std::span<int> sites);
};

void Policy::Assign(long t0, std::span<int> sites) {
  NoteChunk(static_cast<long>(sites.size()));
  for (int& s : sites) s = static_cast<int>(t0 % 2);
}

void InitLedger(Ledger* ledger) { ledger->reserved_runs.reserve(64); }

void PumpChunk(Policy* psi, Ledger* ledger, std::span<int> sites) {
  psi->Assign(0, sites);
  RecordRun(ledger, static_cast<long>(sites.size()));
  TallyRun(ledger, static_cast<long>(sites.size()));
}

}  // namespace fix
