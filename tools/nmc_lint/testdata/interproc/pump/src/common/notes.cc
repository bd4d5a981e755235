// Second TU of the pump fixture: NoteChunk's static is one call below
// the sim pump's Assign root, across a TU boundary. Recount closes a
// cross-TU-reachable cycle back into NoteChunk; completing at all proves
// the reachability walk terminates on cycles, and the chain the test pins
// proves the cycle does not distort shortest paths.

namespace fix {

void Recount(long length);

void NoteChunk(long length) {
  static long chunks = 0;
  chunks += length;
  Recount(length);
}

void Recount(long length) {
  if (length > 1) NoteChunk(length / 2);
}

}  // namespace fix
