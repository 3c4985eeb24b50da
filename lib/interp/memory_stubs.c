/* The interpreter's data memory: one anonymous mapping per run.

   The mapping comes straight from the kernel, zero-filled, so a run
   makes resident only the pages its globals, heap and stack touch, and
   dropping it returns the pages at once.  A malloc'd array of the same
   size is filled by hand (all 8 MB resident) and, once freed, leaves a
   hole in the C heap that other blocks split, so that a later run's
   array needs fresh address space.  The block is charged to the GC by
   its full size, as Bigarray.Array1.create charges its own data. */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>

/* mmap refuses an empty mapping, so zero cells still map one byte. */
static size_t mapping_size(intnat cells)
{
  return cells == 0 ? 1 : (size_t) cells * sizeof(int64_t);
}

static void interp_memory_finalize(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  munmap(b->data, mapping_size(b->dim[0]));
}

static struct custom_operations interp_memory_ops = {
  "aggressive_inlining.interp.memory",
  interp_memory_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

CAMLprim value interp_memory_create(value vcells)
{
  intnat cells = Long_val(vcells);
  if (cells < 0) caml_invalid_argument("Interp: negative memory size");
  size_t bytes = mapping_size(cells);
  void *data = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) caml_raise_out_of_memory();
  value res = caml_alloc_custom_mem(&interp_memory_ops,
                                    sizeof(struct caml_ba_array) + sizeof(intnat),
                                    bytes);
  struct caml_ba_array *b = Caml_ba_array_val(res);
  b->data = data;
  b->num_dims = 1;
  b->flags = CAML_BA_INT64 | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL;
  b->proxy = NULL;
  b->dim[0] = cells;
  return res;
}
