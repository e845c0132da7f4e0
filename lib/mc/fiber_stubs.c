/* Freeing the stack of a fiber the scheduler abandons (see drop_fiber
   in scheduler.ml): OCaml 5.1 never frees the stack of a continuation
   that is dropped without being resumed. The OCaml side detaches the
   stack with the runtime primitive caml_continuation_use_noexc, which
   no 5.1 header declares; this stub frees it and the parent stacks
   chained to it, using only names both the 5.1 and 5.2 headers
   declare. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/fiber.h>

CAMLprim value cdsspec_free_stack(value stack)
{
  /* Val_ptr(NULL) when the continuation had already been resumed. */
  struct stack_info *stk = Ptr_val(stack);
  while (stk != NULL) {
    struct stack_info *parent = Stack_parent(stk);
    caml_free_stack(stk);
    stk = parent;
  }
  return Val_unit;
}
