(* Bump on ANY change to exploration/checking semantics or persisted
   formats: the cross-run result store flushes wholesale when this string
   differs from the one on disk (see lib/store and engine_rev.mli). *)
let current = "cdsspec-engine/15"
