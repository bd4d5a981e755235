// Second TU of the pump fixture: NoteChunk's static is one call below
// Policy::Assign, across a TU boundary, and Recount closes a recursive
// cycle back into NoteChunk. Neither the callers nor the cycle change the
// finding: it is the static's own line, whoever calls NoteChunk.

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
