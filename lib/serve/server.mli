(** Checking-as-a-service: the [cdsspec_run serve] daemon.

    A long-lived process listening on a Unix-domain socket, accepting
    check / lint / fuzz jobs as newline-delimited JSON (one message per
    line, {!Analyze.Json.to_line} framing) and streaming progress events
    and verdicts back. Jobs are sharded across a resident
    {!Mc.Parallel.pool} of worker domains — each job explores serially
    inside one worker, so concurrent clients get job-level parallelism
    without nesting domain pools — and exploration results flow through
    the persistent cross-run {!Store} when one is configured, so a
    repeated job collapses to a warm re-validation.

    Protocol summary (full schema in HACKING.md):

    - requests: [{"op":"ping"}], [{"op":"list"}],
      [{"op":"check","bench":B,...}], [{"op":"lint","bench":B,...}],
      [{"op":"fuzz","bench":B,...}], [{"op":"shutdown"}]
    - responses: every line is an object with an ["event"] field;
      job-scoped events carry the ["job"] id assigned by the
      ["accepted"] event. A job ends with exactly one ["done"] or
      ["error"] event.

    A client that disconnects mid-job does not wedge the pool: its
    running jobs observe the dead connection through their stop hook and
    abort within one exploration step; aborted (truncated) runs are
    never written to the store. *)

(** [serve ~socket ~jobs ?store ()] binds [socket], prints one
    "serving ..." line to stdout, and blocks until a client sends
    [{"op":"shutdown"}]; it then removes the socket file and returns
    [Ok ()]. [jobs] is the resident worker-domain count. [store], when
    given, is shared by all jobs. The caller opens it with
    {!Store.open_dir} (engine-rev flush semantics apply) before calling,
    so a successful connect means the store is open, and an unusable
    store directory fails before any socket file exists.

    Socket rule: a socket already at [socket] (left by a daemon that
    died) is replaced. Anything else there — a regular file, a
    directory — is left untouched, and [serve] returns
    [Error "PATH: exists and is not a socket"]. A failed [lstat],
    [bind] or [listen] (a missing parent directory, say) returns
    [Error "PATH: <system message>"]. Either way the listening socket
    is closed and no worker domain has started. *)
val serve :
  socket:string -> jobs:int -> ?store:Store.t -> unit -> (unit, string) result
