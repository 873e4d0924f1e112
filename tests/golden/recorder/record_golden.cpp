// Records the golden transcripts: writes one <name>.json per builder in
// tests/golden/transcript.h into the given directory. Run it only on a
// revision whose outputs are trusted — test_golden then holds every later
// revision to exactly these records.
//
// Usage: golden_record DIR [NAME...]   (no NAME = every golden file)
#include <cstdio>
#include <string>

#include "transcript.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: golden_record DIR [NAME...]\n");
    return 2;
  }
  const std::string dir = argv[1];
  for (const dramdig::golden::golden_file& g : dramdig::golden::golden_files()) {
    bool wanted = argc == 2;
    for (int i = 2; i < argc; ++i) wanted = wanted || g.name == argv[i];
    if (!wanted) continue;
    dramdig::write_file(dir + "/" + g.name + ".json", g.build());
    std::printf("recorded %s/%s.json\n", dir.c_str(), g.name.c_str());
  }
  return 0;
}
