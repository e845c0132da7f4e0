(* In-memory spans around the benchmark's calls into each layer. Spans
   are only recorded while [enabled] is set (the traced run); the
   untraced run pays one branch per boundary. They are kept in memory
   and written out once, when the run ends. *)

type span = {
  id : int;
  name : string;  (* "layer.call", e.g. "mc.explore", "cdsspec.check" *)
  job : int;  (* benchmark job sequence number the span belongs to *)
  parent : int;  (* enclosing span id, -1 at top level *)
  start : float;  (* Mc.Monotonic seconds *)
  stop : float;
  track : int;  (* recording thread: one per serve connection *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

let fresh_id () =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      id)

let add ~id ~name ~job ~parent ~start ~stop =
  let s = { id; name; job; parent; start; stop; track = Thread.id (Thread.self ()) } in
  Mutex.protect lock (fun () -> spans := s :: !spans)

(* Record a finished span; returns its id for children to name. *)
let record ~name ~job ~parent ~start ~stop =
  let id = fresh_id () in
  add ~id ~name ~job ~parent ~start ~stop;
  id

(* [with_span name ~job f] runs [f id] inside a top-level span; [id] is
   the parent for the spans [f] records. Untraced, [id] is -1. *)
let with_span name ~job f =
  if not !enabled then f (-1)
  else begin
    let id = fresh_id () in
    let start = Mc.Monotonic.now () in
    let r = f id in
    add ~id ~name ~job ~parent:(-1) ~start ~stop:(Mc.Monotonic.now ());
    r
  end

let all () = List.rev !spans

let dur s = s.stop -. s.start

(* Self time of every span named [name]: its duration minus the part of
   its interval covered by its direct children. Children of one parent
   never overlap here (each layer call is synchronous). *)
let self_time ~name spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.fold_left
    (fun acc s ->
      if s.name = name then acc +. dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
      else acc)
    0. spans

let total ~name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0. spans

let count ~name spans = List.length (List.filter (fun s -> s.name = name) spans)

(* Chrome trace-event JSON (complete events, microseconds), viewable in
   any trace viewer. *)
let write path spans =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name s.track
        ((s.start -. t0) *. 1e6)
        (dur s *. 1e6) s.id s.parent s.job)
    spans;
  output_string oc "]}\n";
  close_out oc
