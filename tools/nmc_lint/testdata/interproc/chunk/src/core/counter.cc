// Chunk fixture: a protocol's ProcessChunk override, which walks psi's
// same-site runs, is a hot-path root. NoteRun's push_back grows a vector
// the file never reserves, one call below the override, and StageSlot's
// emplace_back does the same. The override's own emplace_back appends to a
// queue the file reserves, which is the sanctioned pattern and not a
// finding.
#include <cstddef>
#include <span>
#include <vector>

namespace fix {

struct SiteRun {
  int site;
  long length;
};

struct ChunkStop {
  long consumed;
  std::size_t run;
  long offset;
};

class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual ChunkStop ProcessChunk(std::span<const SiteRun> runs,
                                 std::span<const double> values) = 0;
};

class Counter final : public Protocol {
 public:
  Counter() { queue_.reserve(64); }
  ChunkStop ProcessChunk(std::span<const SiteRun> runs,
                         std::span<const double> values) override;

 private:
  void NoteRun(long length);
  void StageSlot();

  std::vector<long> runs_;
  std::vector<long> staged_;
  std::vector<long> queue_;
};

void Counter::NoteRun(long length) { runs_.push_back(length); }

void Counter::StageSlot() { staged_.emplace_back(); }

ChunkStop Counter::ProcessChunk(std::span<const SiteRun> runs,
                                std::span<const double> values) {
  for (const SiteRun& run : runs) NoteRun(run.length);
  StageSlot();
  queue_.emplace_back();
  return ChunkStop{static_cast<long>(values.size()), runs.size(), 0};
}

}  // namespace fix
