(** Client side of the serve protocol: connect to a {!Server} socket,
    send one-line JSON requests, receive one-line JSON events. Used by
    the [cdsspec_run client] subcommand, the protocol tests and the
    serve benchmark.

    Buffering: a [t] owns one 64 KiB read buffer, allocated by
    {!connect} and reused by every {!recv}: no read allocates a buffer,
    and framing an event copies only its line. Bytes that a read brings
    in after a newline stay buffered for the next {!recv}, and the
    head of a line that a read does not finish is kept until the rest
    arrives; each byte is scanned for the newline once. A [t] is not
    safe to share between threads. *)

type t

(** Raises [Unix.Unix_error], with the socket it opened closed, when the
    connect fails. *)
val connect : string -> t

val close : t -> unit

(** Send one request (the compact one-line framing is applied here). *)
val send : t -> Analyze.Json.t -> unit

type msg =
  | Msg of Analyze.Json.t
  | Eof  (** server closed the connection *)
  | Timeout  (** only with [?timeout] *)

(** Next event line. Blocks (or waits up to [timeout] seconds) for a
    complete line. [Eof] means the server closed the connection after
    a complete line; a reset connection (a server that closed with the
    request unread) counts as closed. Raises [Failure] on a line that
    is not valid JSON, or on a close in the middle of a line
    (["...truncated line"]) — protocol violations, not recoverable
    conditions. *)
val recv : ?timeout:float -> t -> msg

(** [job_id j] is the ["job"] field of an ["accepted"] event. *)
val job_id : Analyze.Json.t -> int option
