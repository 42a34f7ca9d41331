// Internal: raw source text of the embedded Ext4 corpus, one constant per
// file, and the per-file-system entries fileSystems() lists.
#pragma once

#include "corpus/corpus.h"

namespace fsdep::corpus {

extern const char* kExt4FsHeader;   // "ext4_fs.h"
extern const char* kLibcHeader;     // "fsdep_libc.h"
extern const char* kMke2fsSource;   // "mke2fs.c"
extern const char* kMountSource;    // "mount.c"
extern const char* kExt4Source;     // "ext4.c"
extern const char* kE4defragSource; // "e4defrag.c"
extern const char* kResize2fsSource;// "resize2fs.c"
extern const char* kE2fsckSource;   // "e2fsck.c"

// One entry per file system, each defined beside that file system's data.
FileSystem ext4FileSystem();   // ext4.cpp
FileSystem xfsFileSystem();    // sources_xfs.cpp
FileSystem btrfsFileSystem();  // sources_btrfs.cpp

}  // namespace fsdep::corpus
