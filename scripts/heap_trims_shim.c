/* LD_PRELOAD shim that counts glibc heap trims: calls to free() or
 * realloc() after which the program break (sbrk(0)) is lower than before,
 * i.e. the main arena handed the top of its heap back to the kernel and
 * will have to grow it again. Other arenas (mmap'd) are not counted.
 *
 * At exit it writes the count, one line, to the file named by the
 * HEAP_TRIMS_OUT environment variable, or to stderr when that is unset.
 * scripts/heap_trims.py builds and drives it; by hand:
 *
 *   cc -O2 -shared -fPIC -o heap_trims_shim.so scripts/heap_trims_shim.c
 *   HEAP_TRIMS_OUT=trims.txt LD_PRELOAD=$PWD/heap_trims_shim.so ./program
 *
 * glibc only: the real allocator is reached through its exported
 * __libc_free/__libc_realloc, so no dlsym runs inside free(). */

#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

extern void __libc_free(void* p);
extern void* __libc_realloc(void* p, size_t n);

static atomic_long trims;

void free(void* p) {
  char* before = sbrk(0);
  __libc_free(p);
  if ((char*)sbrk(0) < before) atomic_fetch_add(&trims, 1);
}

void* realloc(void* p, size_t n) {
  char* before = sbrk(0);
  void* q = __libc_realloc(p, n);
  if ((char*)sbrk(0) < before) atomic_fetch_add(&trims, 1);
  return q;
}

__attribute__((destructor)) static void report(void) {
  const char* path = getenv("HEAP_TRIMS_OUT");
  FILE* out = path != NULL ? fopen(path, "w") : stderr;
  if (out == NULL) return;
  fprintf(out, "%ld\n", atomic_load(&trims));
  if (out != stderr) fclose(out);
}
