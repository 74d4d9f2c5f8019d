// Preloaded into the load generator and the daemon it starts
// (LD_PRELOAD): fsync and fdatasync return at once instead of waiting
// for the device, as they do on tmpfs. The benchmark may write only
// inside its checkout, which sits on whatever disk the host gives it;
// on a shared virtual disk flush latency follows other tenants' load
// and would swamp the daemon's own cost. Every call still happens, in
// the same order, and written data stays in the page cache, so a
// process crash (SIGKILL) loses exactly what it would on tmpfs.

#include <fcntl.h>

extern "C" int fsync(int fd) {
  if (::fcntl(fd, F_GETFD) < 0) return -1;  // errno = EBADF
  return 0;
}

extern "C" int fdatasync(int fd) { return fsync(fd); }
