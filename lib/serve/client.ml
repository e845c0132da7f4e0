module J = Analyze.Json

type t = { fd : Unix.file_descr; inbuf : Buffer.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbuf = Buffer.create 256 }

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

let send t j =
  let line = J.to_line j ^ "\n" in
  let bytes = Bytes.of_string line in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write t.fd bytes !off (len - !off) in
    if n <= 0 then failwith "Serve.Client.send: connection closed";
    off := !off + n
  done

type msg = Msg of J.t | Eof | Timeout

(* Pop one complete line from the buffer, if any. *)
let take_line t =
  let s = Buffer.contents t.inbuf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    let line = String.sub s 0 i in
    Buffer.clear t.inbuf;
    Buffer.add_substring t.inbuf s (i + 1) (String.length s - i - 1);
    Some line

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
          let bytes = Bytes.create 65536 in
          match Unix.read t.fd bytes 0 (Bytes.length bytes) with
          | 0 -> if Buffer.length t.inbuf > 0 then failwith "Serve.Client.recv: truncated line" else Eof
          | n ->
            Buffer.add_subbytes t.inbuf bytes 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()))
  in
  go ()

let job_id j = Option.bind (J.member "job" j) J.to_int
