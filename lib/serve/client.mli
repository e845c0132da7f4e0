(** Client side of the serve protocol: connect to a {!Server} socket,
    send one-line JSON requests, receive one-line JSON events. Used by
    the [cdsspec_run client] subcommand, the protocol tests and the
    serve benchmark. *)

type t

val connect : string -> t

val close : t -> unit

(** Send one request (the compact one-line framing is applied here). *)
val send : t -> Analyze.Json.t -> unit

type msg =
  | Msg of Analyze.Json.t
  | Eof  (** server closed the connection *)
  | Timeout  (** only with [?timeout] *)

(** Next event line. Blocks (or waits up to [timeout] seconds) for a
    complete line. Raises [Failure] on a line that is not valid JSON —
    a protocol violation, not a recoverable condition. *)
val recv : ?timeout:float -> t -> msg

(** [job_id j] is the ["job"] field of an ["accepted"] event. *)
val job_id : Analyze.Json.t -> int option
