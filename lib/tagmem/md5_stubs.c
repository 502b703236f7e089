/* Incremental MD5 over the OCaml runtime's own implementation, so that
   [Tagmem.digest] can hash memory one frame at a time with the same
   result as one [Digest.subbytes] call over a contiguous image.

   The context lives in an OCaml [bytes] value of [sizeof(struct
   MD5Context)] bytes. Every stub is [@@noalloc]: it neither allocates
   nor raises, so no collection can move its arguments during the call. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/md5.h>

value tagmem_md5_ctx_size(value unit)
{
  (void)unit;
  return Val_long(sizeof(struct MD5Context));
}

value tagmem_md5_init(value ctx)
{
  caml_MD5Init((struct MD5Context *) Bytes_val(ctx));
  return Val_unit;
}

value tagmem_md5_update(value ctx, value buf, value off, value len)
{
  caml_MD5Update((struct MD5Context *) Bytes_val(ctx),
                 Bytes_val(buf) + Long_val(off), Long_val(len));
  return Val_unit;
}

value tagmem_md5_final(value ctx, value out)
{
  caml_MD5Final(Bytes_val(out), (struct MD5Context *) Bytes_val(ctx));
  return Val_unit;
}
