(** Minimal JSON document builder for the lint report's machine-readable
    output and the serve daemon's wire protocol. Hand-rolled (like the
    bench JSON emitters) so the repo stays dependency-free; both
    printers are deterministic, which lets the test suite pin schemas
    byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Pretty-printed with two-space indentation and a trailing newline. *)
val to_string : t -> string

(** Compact single-line form with no trailing newline — the serve
    protocol's NDJSON framing (strings escape embedded newlines, so the
    output never contains one). *)
val to_line : t -> string

(** [add_line buf j] appends [to_line j] and a newline to [buf]: one
    NDJSON line, with no intermediate string. *)
val add_line : Buffer.t -> t -> unit

(** Parse one JSON value; accepts what either printer emits plus
    insignificant whitespace, rejects trailing garbage. Numbers
    containing '.', 'e' or 'E' parse as [Float], others as [Int].
    Errors carry a byte offset. *)
val of_string : string -> (t, string) result

(** [member k j] is field [k] of object [j]; [None] on missing field or
    non-object. *)
val member : string -> t -> t option

val to_str : t -> string option
val to_int : t -> int option
