module J = Analyze.Json

(* [chunk] is the one read buffer, allocated at [connect]: a read fills
   it from 0, and [chunk.[start..stop)] are its bytes not yet framed.
   [pending] holds the head of a line that a read did not finish. *)
type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable start : int;
  mutable stop : int;
  pending : Buffer.t;
}

(* A failed connect closes its socket: the GC never closes an fd. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; chunk = Bytes.create 65536; start = 0; stop = 0; pending = Buffer.create 256 }

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

let send t j =
  let buf = Buffer.create 256 in
  J.add_line buf j;
  let line = Buffer.contents buf in
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write_substring t.fd line !off (len - !off) in
    if n <= 0 then failwith "Serve.Client.send: connection closed";
    off := !off + n
  done

type msg = Msg of J.t | Eof | Timeout

(* Pop one complete line, if the unframed bytes hold one. Each byte is
   scanned once: bytes with no newline after them move to [pending]. *)
let take_line t =
  let i = ref t.start in
  while !i < t.stop && Bytes.get t.chunk !i <> '\n' do
    incr i
  done;
  let head = t.start in
  if !i = t.stop then begin
    Buffer.add_subbytes t.pending t.chunk head (t.stop - head);
    t.start <- t.stop;
    None
  end
  else begin
    t.start <- !i + 1;
    if Buffer.length t.pending = 0 then Some (Bytes.sub_string t.chunk head (!i - head))
    else begin
      Buffer.add_subbytes t.pending t.chunk head (!i - head);
      let line = Buffer.contents t.pending in
      Buffer.clear t.pending;
      Some line
    end
  end

let recv ?timeout t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let rec go () =
    match take_line t with
    | Some line -> (
      match J.of_string line with
      | Ok j -> Msg j
      | Error m -> failwith (Printf.sprintf "Serve.Client.recv: bad event %S: %s" line m))
    | None -> (
      let wait =
        match deadline with
        | None -> -1.
        | Some d ->
          let r = d -. Unix.gettimeofday () in
          if r <= 0. then 0. else r
      in
      if wait = 0. && deadline <> None then Timeout
      else
        let readable, _, _ =
          try Unix.select [ t.fd ] [] [] wait
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        match readable with
        | [] -> if deadline <> None then Timeout else go ()
        | _ -> (
          (* A peer that closes with our request unread resets the
             connection: that is a close too. *)
          let closed () =
            if Buffer.length t.pending > 0 then failwith "Serve.Client.recv: truncated line"
            else Eof
          in
          match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
          | 0 -> closed ()
          | n ->
            t.start <- 0;
            t.stop <- n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed ()))
  in
  go ()

let job_id j = Option.bind (J.member "job" j) J.to_int
